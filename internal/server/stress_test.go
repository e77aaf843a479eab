package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ndmesh"
)

// TestStressConcurrentClients storms the daemon with mixed workload
// kinds from parallel clients (run under -race in CI), then audits the
// aftermath: every successful response for the same submission carries
// identical bytes (cache consistency), every pooled engine is clean, and
// a post-storm run on the recycled engines still matches the batch
// library output byte for byte.
func TestStressConcurrentClients(t *testing.T) {
	srv := New(Config{MaxConcurrent: 4, MaxQueue: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	trace := recordedTrace(t)
	replaySpec, err := json.Marshal(map[string]any{"kind": "replay", "trace": trace})
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{
		`{"kind":"open-loop","dims":[4,4],"rates":[0.05,0.2],"warmup":8,"measure":24,"drain":32,"seed":42,"workers":2}`,
		`{"kind":"closed-loop","dims":[4,4],"windows":[1,2],"warmup":8,"measure":24,"drain":32,"seed":7}`,
		`{"kind":"reliability","dims":[4,4],"fault_rates":[0,0.02],"trials":2,"rate":0.1,"warmup":8,"measure":24,"drain":32,"flight_timeout":16,"seed":3}`,
		string(replaySpec),
	}

	const clients = 8
	const iters = 4
	bodies := make([]map[string][][]byte, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		bodies[c] = make(map[string][][]byte)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				spec := specs[(c+i)%len(specs)]
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					bodies[c][spec] = append(bodies[c][spec], body)
				case http.StatusServiceUnavailable:
					// queue pressure; fine
				default:
					t.Errorf("unexpected status %d: %s", resp.StatusCode, body)
				}
			}
		}(c)
	}
	wg.Wait()

	// Cache consistency: all successful bodies for one spec are one byte
	// sequence, whether they were computed or served from cache.
	canonical := make(map[string][]byte)
	for c := range bodies {
		for spec, got := range bodies[c] {
			for _, b := range got {
				if want, ok := canonical[spec]; !ok {
					canonical[spec] = b
				} else if !bytes.Equal(b, want) {
					t.Fatalf("divergent bodies for the same spec under concurrency")
				}
			}
		}
	}
	if len(canonical) != len(specs) {
		t.Fatalf("only %d/%d specs completed successfully", len(canonical), len(specs))
	}

	if err := srv.Pool().VerifyClean(); err != nil {
		t.Fatal(err)
	}

	// Engines recycled through the storm still produce the batch bytes.
	spec, err := ParseSpec([]byte(specs[0]))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ndmesh.SaturationSweepWorkers(sweepOptions[ndmesh.SaturationRow](spec), spec.Seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, r := range rows {
		want.Write(encodeNDJSON(r))
	}
	if !bytes.Equal(canonical[specs[0]], want.Bytes()) {
		t.Fatal("post-storm open-loop body differs from batch rows")
	}
}

// TestStressMidStreamCancel cancels clients mid-stream: the handler's
// Cancel hook aborts the sweep, the job records canceled, and the
// engines return to the pool clean — then the same spec, resubmitted
// whole, still matches the batch bytes on the recycled engines.
func TestStressMidStreamCancel(t *testing.T) {
	srv := New(Config{MaxConcurrent: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A job long enough that the client's cancellation lands mid-run.
	long := `{"kind":"open-loop","dims":[6,6],"rates":[0.2],"warmup":64,"measure":40000,"drain":256,"seed":5}`
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/jobs", strings.NewReader(long))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			// Streaming has begun; cut the connection mid-body.
			go func() {
				time.Sleep(10 * time.Millisecond)
				cancel()
			}()
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()
	}
	// The handlers unwind asynchronously after the connection drops; wait
	// for the registry to settle before auditing.
	deadline := time.Now().Add(10 * time.Second)
	for {
		jobs := srv.snapshot()
		settled := true
		for _, st := range jobs {
			if st.State == StateQueued || st.State == StateRunning {
				settled = false
			}
		}
		if settled && len(jobs) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("canceled jobs never settled")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := srv.Pool().VerifyClean(); err != nil {
		t.Fatal(err)
	}

	// Recycled engines still compute clean results after the aborts.
	short := `{"kind":"open-loop","dims":[6,6],"rates":[0.2],"warmup":16,"measure":48,"drain":64,"seed":5}`
	resp, got := submit(t, ts, "", short)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	spec, err := ParseSpec([]byte(short))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ndmesh.SaturationSweepWorkers(sweepOptions[ndmesh.SaturationRow](spec), spec.Seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, r := range rows {
		want.Write(encodeNDJSON(r))
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("post-cancel body differs from batch rows")
	}
}

// TestStressShutdownMidJob force-cancels the server while a long job is
// streaming: the stream terminates with an NDJSON error line, the job
// records canceled, nothing enters the cache, and the pool is clean.
func TestStressShutdownMidJob(t *testing.T) {
	srv := New(Config{MaxConcurrent: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	long := `{"kind":"open-loop","dims":[6,6],"rates":[0.2],"warmup":64,"measure":100000,"drain":256,"seed":5}`
	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(long))
		if err != nil {
			done <- result{}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- result{resp.StatusCode, body}
	}()

	// Wait for the job to be running, then pull the plug.
	for {
		running := false
		for _, st := range srv.snapshot() {
			if st.State == StateRunning {
				running = true
			}
		}
		if running {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.BeginShutdown()
	srv.CancelAll()
	srv.Wait()

	r := <-done
	if r.status != http.StatusOK {
		t.Fatalf("streaming job status %d", r.status)
	}
	if !bytes.Contains(r.body, []byte(`"error"`)) {
		t.Fatalf("canceled stream carries no error line: %q", r.body)
	}
	st := srv.snapshot()[0]
	if st.State != StateCanceled {
		t.Fatalf("job state = %s, want canceled", st.State)
	}
	if cs := srv.CacheStats(); cs.Entries != 0 {
		t.Fatalf("canceled job entered the cache: %+v", cs)
	}
	if err := srv.Pool().VerifyClean(); err != nil {
		t.Fatal(err)
	}
}

// TestStressQueueBound floods a 1-slot server past its admission queue:
// some submissions must be refused with 503 before any streaming begins,
// and the refusals appear in the registry as refused, not failed.
func TestStressQueueBound(t *testing.T) {
	srv := New(Config{MaxConcurrent: 1, MaxQueue: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := func(i int) string {
		// Distinct seeds so the cache cannot absorb the flood.
		return fmt.Sprintf(`{"kind":"open-loop","dims":[6,6],"rates":[0.2],"warmup":32,"measure":4000,"drain":64,"seed":%d}`, i)
	}
	const n = 8
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec(i)))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	ok, refused := 0, 0
	for _, s := range statuses {
		switch s {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			refused++
		default:
			t.Fatalf("unexpected status %d", s)
		}
	}
	if ok == 0 || refused == 0 {
		t.Fatalf("flood produced %d ok / %d refused; wanted both nonzero", ok, refused)
	}
	if err := srv.Pool().VerifyClean(); err != nil {
		t.Fatal(err)
	}
}
