package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ndmesh"
	"ndmesh/internal/cliutil"
	"ndmesh/internal/server"
)

// logBuffer is run's stderr: written by the daemon, polled by the test.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// poll retries get until it reports done or ten seconds pass.
func poll(t *testing.T, what string, get func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if get() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

func post(t *testing.T, url, spec string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, body)
	}
	return resp, string(body)
}

// TestServeSmoke is the daemon end to end, in-process: the served CSV is
// the batch sweep's table byte for byte (the bytes cmd/loadgen's tests pin
// equal to loadgen -csv), a repeat NDJSON submission comes from the result
// cache with the identical body (as does a third, under an exact
// Content-Length), /debug/census carries the pool and cache counters, and
// a drain begun with a job in flight lets its stream finish whole before
// run returns nil.
func TestServeSmoke(t *testing.T) {
	ctx, sigterm := context.WithCancel(context.Background())
	defer sigterm()
	var stderr logBuffer
	exited := make(chan error, 1)
	go func() { exited <- run(ctx, []string{"-addr", "127.0.0.1:0", "-drain-timeout", "60s"}, &stderr) }()
	var base string
	poll(t, "the listening line", func() bool {
		m := regexp.MustCompile(`listening on (\S+)`).FindStringSubmatch(stderr.String())
		if m != nil {
			base = "http://" + m[1]
		}
		return m != nil
	})

	opt := ndmesh.SaturationOptions{
		Dims: []int{6, 6}, Lambda: 1, Patterns: []string{"uniform", "transpose"},
		Routers: []string{"limited", "congested"}, Rates: []float64{0.05, 0.25},
		Process: "bernoulli", Warmup: 16, Measure: 48, Drain: 48, LinkRate: 1, NodeCapacity: 4,
	}
	spec := `{"kind":"open-loop","dims":[6,6],"patterns":["uniform","transpose"],"routers":["limited","congested"],"rates":[0.05,0.25],"warmup":16,"measure":48,"drain":48,"node_capacity":4,"workers":2,"seed":1}`
	rows, err := ndmesh.SaturationSweepWorkers(opt, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, csv := post(t, base+"/v1/jobs?format=csv", spec); csv != cliutil.OpenLoopTable("", rows).CSV() {
		t.Errorf("served CSV differs from the batch table:\n%s", csv)
	}

	first, body1 := post(t, base+"/v1/jobs", spec)
	second, body2 := post(t, base+"/v1/jobs", spec)
	if first.Header.Get("X-Meshd-Cache") != "miss" || second.Header.Get("X-Meshd-Cache") != "hit" {
		t.Errorf("X-Meshd-Cache = %q then %q, want miss then hit", first.Header.Get("X-Meshd-Cache"), second.Header.Get("X-Meshd-Cache"))
	}
	if body1 != body2 {
		t.Error("the cache hit's body differs from the miss it repeats")
	}
	third, body3 := post(t, base+"/v1/jobs", spec)
	if third.Header.Get("X-Meshd-Cache") != "hit" || body3 != body1 {
		t.Errorf("third identical request: X-Meshd-Cache = %q, body equal %v; want a hit with the miss's body", third.Header.Get("X-Meshd-Cache"), body3 == body1)
	}
	if cl := third.Header.Get("Content-Length"); cl != strconv.Itoa(len(body3)) {
		t.Errorf("third identical request: Content-Length = %q for a %d-byte body", cl, len(body3))
	}

	resp, err := http.Get(base + "/debug/census")
	if err != nil {
		t.Fatal(err)
	}
	census, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, counter := range []string{`"acquired"`, `"hits"`} {
		if !bytes.Contains(census, []byte(counter)) {
			t.Errorf("/debug/census lacks %s: %s", counter, census)
		}
	}

	// SIGTERM with a job in flight: the drain lets the stream finish.
	streamed := make(chan string, 1)
	go func() {
		resp, err := http.Post(base+"/v1/jobs", "application/json",
			strings.NewReader(`{"kind":"open-loop","dims":[8,8],"rates":[0.2],"warmup":64,"measure":20000,"drain":256,"seed":2}`))
		if err != nil {
			t.Error(err)
			streamed <- ""
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		streamed <- string(body)
	}()
	poll(t, "the job to be running", func() bool {
		resp, err := http.Get(base + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var list struct{ Jobs []server.JobStatus }
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		return list.Jobs[len(list.Jobs)-1].State == server.StateRunning
	})
	sigterm()
	body := <-streamed
	if strings.Count(body, "\n") != 1 || strings.Contains(body, `"error"`) {
		t.Errorf("drained stream is not one whole row: %q", body)
	}
	if err := <-exited; err != nil {
		t.Errorf("run returned %v after a clean drain", err)
	}
	if !strings.Contains(stderr.String(), "drained cleanly") {
		t.Errorf("no clean-drain line in the log:\n%s", stderr.String())
	}
}

// TestNegativeLimitsRejected holds run to refusing a negative -concurrency,
// -queue or -pool-idle by name, before it listens.
func TestNegativeLimitsRejected(t *testing.T) {
	for _, name := range []string{"concurrency", "queue", "pool-idle"} {
		var stderr logBuffer
		err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-" + name, "-1"}, &stderr)
		if err == nil || !strings.Contains(err.Error(), "-"+name+" ") {
			t.Errorf("-%s -1: err = %v, want one naming the flag", name, err)
		}
		if strings.Contains(stderr.String(), "listening") {
			t.Errorf("-%s -1: the daemon listened", name)
		}
	}
}
