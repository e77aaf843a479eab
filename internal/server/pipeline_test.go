package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"ndmesh"
)

// shortSpec is a one-cell job that finishes in milliseconds; longSpec one
// that outlives any test unless canceled (the cancel poll makes that
// prompt), spending its steps in warmup so its collector holds no samples
// and the heap reading of TestRegistryBounded sees the registry alone.
// Distinct seeds are distinct cache keys.
func shortSpec(seed int) string {
	return fmt.Sprintf(`{"kind":"open-loop","dims":[4,4],"rates":[0.2],"warmup":8,"measure":24,"drain":32,"seed":%d}`, seed)
}

func longSpec(seed int) string {
	return fmt.Sprintf(`{"kind":"open-loop","dims":[16,16],"rates":[0.2],"warmup":1000000,"measure":24,"drain":32,"seed":%d}`, seed)
}

// startJob submits spec from a goroutine and returns the client-side
// cancel plus a channel closed once the client has seen the response end.
func startJob(t *testing.T, ts *httptest.Server, spec string) (cancel func(), done <-chan struct{}) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/jobs", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	return cancel, ch
}

// waitFor polls the registry until some job satisfies ok and returns its ID.
func waitFor(t *testing.T, srv *Server, what string, ok func(JobStatus) bool) string {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		for _, st := range srv.snapshot() {
			if ok(st) {
				return st.ID
			}
		}
	}
	t.Fatalf("no job became %s", what)
	return ""
}

func waitForState(t *testing.T, srv *Server, state string) string {
	t.Helper()
	return waitFor(t, srv, state, func(st JobStatus) bool { return st.State == state })
}

// getJob fetches one job's status over HTTP; ok is false on 404.
func getJob(t *testing.T, ts *httptest.Server, id string) (st JobStatus, ok bool) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return st, false
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st, true
}

func listJobs(t *testing.T, ts *httptest.Server) []JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	return list.Jobs
}

// TestRegistryBounded is the registry's bound (ARCHITECTURE.md "The service
// layer (meshd)"): the registry holds the live
// jobs plus the last retainedJobs finished ones, however many submissions
// — cache hits and refusals included — pass through. A job that runs
// throughout stays listed and addressable; finished jobs fall off the ring
// oldest first; the heap is flat once the ring is full.
func TestRegistryBounded(t *testing.T) {
	srv := New(Config{MaxConcurrent: 1, MaxQueue: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, _ := submit(t, ts, "", shortSpec(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("priming submission: status %d", resp.StatusCode)
	}
	firstID := resp.Header.Get("X-Meshd-Job")

	// One job holds the run slot and one the queue slot for the whole test.
	cancelRunning, runningDone := startJob(t, ts, longSpec(2))
	defer cancelRunning()
	runningID := waitForState(t, srv, StateRunning)
	cancelQueued, queuedDone := startJob(t, ts, longSpec(3))
	defer cancelQueued()
	queuedID := waitForState(t, srv, StateQueued)
	live := map[string]string{runningID: StateRunning, queuedID: StateQueued}

	var refusedID string
	for i := 0; i < 3; i++ {
		if resp, _ := submit(t, ts, "", shortSpec(100+i)); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("submission past the queue bound: status %d, want 503", resp.StatusCode)
		}
	}
	for _, st := range srv.snapshot() {
		if st.State == StateRefused && refusedID == "" {
			refusedID = st.ID
		}
	}

	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var heapAtK uint64
	var newestID string
	for i := 1; i <= 3*retainedJobs; i++ {
		resp, _ := submit(t, ts, "", shortSpec(1))
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Meshd-Cache") != "hit" {
			t.Fatalf("hit %d: status %d cache %q", i, resp.StatusCode, resp.Header.Get("X-Meshd-Cache"))
		}
		newestID = resp.Header.Get("X-Meshd-Job")
		if i == retainedJobs {
			heapAtK = heap()
		}
		if i%retainedJobs == 0 {
			for id, state := range live {
				if st, ok := getJob(t, ts, id); !ok || st.State != state {
					t.Fatalf("after %d hits live job %s = %+v (found %v), want %s", i, id, st, ok, state)
				}
			}
		}
	}
	grown := int64(heap()) - int64(heapAtK)
	t.Logf("HeapAlloc moved %+d bytes between hit %d and hit %d", grown, retainedJobs, 3*retainedJobs)
	// The unbounded registry grew ~380 KiB over these 2K hits; the ring's
	// readings wander by tens of KiB.
	if grown > 256<<10 {
		t.Errorf("heap grew %d bytes between hit %d and hit %d; the registry is not bounded", grown, retainedJobs, 3*retainedJobs)
	}

	jobs := listJobs(t, ts)
	if len(jobs) > retainedJobs+len(live) {
		t.Fatalf("GET /v1/jobs lists %d jobs, want at most %d + %d live", len(jobs), retainedJobs, len(live))
	}
	prev := 0
	for _, st := range jobs {
		var n int
		if _, err := fmt.Sscanf(st.ID, "job-%d", &n); err != nil || n <= prev {
			t.Fatalf("job list out of submission order at %s (after job-%d)", st.ID, prev)
		}
		prev = n
		if want, ok := live[st.ID]; ok && st.State == want {
			delete(live, st.ID)
		}
	}
	if len(live) != 0 {
		t.Fatalf("live jobs missing from the list: %v", live)
	}
	if jobs[len(jobs)-1].ID != newestID {
		t.Fatalf("list ends at %s, want the newest submission %s", jobs[len(jobs)-1].ID, newestID)
	}
	if st, ok := getJob(t, ts, newestID); !ok || st.State != StateDone || st.Cache != "hit" {
		t.Fatalf("newest job %s = %+v (found %v)", newestID, st, ok)
	}
	for _, id := range []string{firstID, refusedID} {
		if st, ok := getJob(t, ts, id); ok {
			t.Fatalf("job %s should have left the ring, got %+v", id, st)
		}
	}

	// The two live jobs end as the newest finished ones.
	cancelRunning()
	cancelQueued()
	<-runningDone
	<-queuedDone
	srv.Wait()
	for _, id := range []string{runningID, queuedID} {
		if st, ok := getJob(t, ts, id); !ok || st.State != StateCanceled {
			t.Fatalf("canceled job %s = %+v (found %v)", id, st, ok)
		}
	}
	if err := srv.Pool().VerifyClean(); err != nil {
		t.Fatal(err)
	}
}

// brokenWriter is a client that went away: headers are accepted, every
// body write fails.
type brokenWriter struct{ header http.Header }

func (w brokenWriter) Header() http.Header       { return w.header }
func (w brokenWriter) WriteHeader(int)           {}
func (w brokenWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestJobStateTransitions drives one job into every terminal state the
// pipeline has and pins the JobStatus settle leaves behind.
func TestJobStateTransitions(t *testing.T) {
	// holdSlot occupies the server's one run slot until the test ends.
	holdSlot := func(t *testing.T, srv *Server, ts *httptest.Server) {
		cancel, done := startJob(t, ts, longSpec(2))
		t.Cleanup(func() { cancel(); <-done })
		waitForState(t, srv, StateRunning)
	}
	// No spec that passes the library's check fails reliably in its cell,
	// so the failed-run case swaps the open-loop row's run for one that
	// fails and restores it when the case ends.
	runErr := errors.New("ndmesh: the cell failed")
	failRun := func(t *testing.T) {
		k, err := kindOf(KindOpenLoop)
		if err != nil {
			t.Fatal(err)
		}
		run := k.run
		k.run = func(*Spec, env) error { return runErr }
		t.Cleanup(func() { k.run = run })
	}

	for _, tc := range []struct {
		name string
		// drive takes a fresh 1-slot, 1-queue server to the state under
		// test and returns the job's ID.
		drive func(t *testing.T, srv *Server, ts *httptest.Server) string
		want  JobStatus
	}{
		{"done", func(t *testing.T, srv *Server, ts *httptest.Server) string {
			resp, _ := submit(t, ts, "", shortSpec(1))
			return resp.Header.Get("X-Meshd-Job")
		}, JobStatus{State: StateDone, Rows: 1, Cache: "miss"}},
		{"hit", func(t *testing.T, srv *Server, ts *httptest.Server) string {
			submit(t, ts, "", shortSpec(1))
			resp, _ := submit(t, ts, "", shortSpec(1))
			return resp.Header.Get("X-Meshd-Job")
		}, JobStatus{State: StateDone, Rows: 1, Cache: "hit"}},
		{"refused", func(t *testing.T, srv *Server, ts *httptest.Server) string {
			holdSlot(t, srv, ts)
			cancel, done := startJob(t, ts, longSpec(3))
			t.Cleanup(func() { cancel(); <-done })
			waitForState(t, srv, StateQueued)
			if resp, _ := submit(t, ts, "", shortSpec(1)); resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("status %d, want 503", resp.StatusCode)
			}
			return waitForState(t, srv, StateRefused)
		}, JobStatus{State: StateRefused, Cache: "miss", Error: "admission queue full"}},
		{"canceled-while-queued", func(t *testing.T, srv *Server, ts *httptest.Server) string {
			holdSlot(t, srv, ts)
			cancel, done := startJob(t, ts, shortSpec(1))
			id := waitForState(t, srv, StateQueued)
			cancel()
			<-done
			return id
		}, JobStatus{State: StateCanceled, Cache: "miss", Error: "canceled while queued"}},
		{"canceled-by-CancelAll-queued", func(t *testing.T, srv *Server, ts *httptest.Server) string {
			holdSlot(t, srv, ts)
			_, done := startJob(t, ts, shortSpec(1))
			id := waitForState(t, srv, StateQueued)
			srv.CancelAll()
			<-done
			return id
		}, JobStatus{State: StateCanceled, Cache: "miss", Error: "server canceled all jobs"}},
		{"canceled-by-CancelAll-running", func(t *testing.T, srv *Server, ts *httptest.Server) string {
			_, done := startJob(t, ts, longSpec(2))
			id := waitForState(t, srv, StateRunning)
			srv.CancelAll()
			<-done
			return id
		}, JobStatus{State: StateCanceled, Cache: "miss", Error: ndmesh.ErrCanceled.Error()}},
		{"failed-run", func(t *testing.T, srv *Server, ts *httptest.Server) string {
			failRun(t)
			resp, body := submit(t, ts, "", shortSpec(1))
			if want := string(encodeNDJSON(map[string]string{"error": runErr.Error()})); resp.StatusCode != http.StatusOK || string(body) != want {
				t.Fatalf("failed run answered %d %q, want 200 %q", resp.StatusCode, body, want)
			}
			return resp.Header.Get("X-Meshd-Job")
		}, JobStatus{State: StateFailed, Cache: "miss", Error: runErr.Error()}},
		{"client-went-away", func(t *testing.T, srv *Server, ts *httptest.Server) string {
			w := brokenWriter{header: http.Header{}}
			srv.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(shortSpec(1))))
			if cs := srv.CacheStats(); cs.Entries != 0 {
				t.Fatalf("a truncated stream entered the cache: %+v", cs)
			}
			return w.header.Get("X-Meshd-Job")
		}, JobStatus{State: StateFailed, Rows: 1, Cache: "miss", Error: "client went away mid-stream"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Config{MaxConcurrent: 1, MaxQueue: 1})
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close) // after drive's cleanups have ended its jobs
			id := tc.drive(t, srv, ts)
			// The client may see its request end before the handler settles.
			waitFor(t, srv, "final", func(st JobStatus) bool {
				return st.ID == id && st.State != StateQueued && st.State != StateRunning
			})
			got, ok := getJob(t, ts, id)
			if !ok {
				t.Fatalf("job %q is not in the registry", id)
			}
			want := tc.want
			want.ID, want.Kind, want.Cells = id, KindOpenLoop, 1
			if got != want {
				t.Fatalf("settled as %+v, want %+v", got, want)
			}
		})
	}
}

// TestKindsTableComplete: every kind constant is one table row, format=csv
// is accepted exactly where the row says, and the unknown-kind error is
// written from the table.
func TestKindsTableComplete(t *testing.T) {
	replay, err := json.Marshal(map[string]any{"kind": KindReplay, "trace": recordedTrace(t)})
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]string{
		KindOpenLoop:    shortSpec(1),
		KindClosedLoop:  `{"kind":"closed-loop","dims":[4,4],"windows":[2],"warmup":8,"measure":24,"drain":32}`,
		KindReplay:      string(replay),
		KindReliability: `{"kind":"reliability","dims":[4,4],"fault_rates":[0.01],"trials":2,"warmup":8,"measure":24,"drain":32}`,
	}
	if len(kinds) != len(specs) {
		t.Fatalf("the table has %d rows for %d kind constants", len(kinds), len(specs))
	}
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var names []string
	for _, k := range kinds {
		names = append(names, k.name)
		spec, ok := specs[k.name]
		if !ok {
			t.Fatalf("row %q is not a Kind constant", k.name)
		}
		delete(specs, k.name)
		want := http.StatusBadRequest
		if k.csv {
			want = http.StatusOK
		}
		if resp, body := submit(t, ts, "?format=csv", spec); resp.StatusCode != want {
			t.Errorf("%s with format=csv: status %d (%s), row says csv=%v", k.name, resp.StatusCode, body, k.csv)
		}
		if resp, body := submit(t, ts, "", spec); resp.StatusCode != http.StatusOK {
			t.Errorf("%s as ndjson: status %d (%s)", k.name, resp.StatusCode, body)
		}
	}
	for _, body := range []string{`{}`, `{"kind":"sideways"}`} {
		if _, err := ParseSpec([]byte(body)); err == nil || !strings.Contains(err.Error(), strings.Join(names, " | ")) {
			t.Errorf("ParseSpec(%s) = %v, want an error listing %q", body, err, names)
		}
	}
}

// TestJobLookup: GET /v1/jobs/{id} answers from the live list and the ring
// in place, byte for byte what finding the id in the sorted snapshot gives
// — for a live job, a finished one, one the ring has pushed out (the 1025th
// finished job before the newest) and a malformed id.
func TestJobLookup(t *testing.T) {
	srv := New(Config{})
	finish := func() *JobStatus {
		j := srv.register(KindOpenLoop, 1, true)
		srv.settle(j, StateDone, "")
		return j
	}
	pushed := finish()
	var newest *JobStatus
	for range retainedJobs {
		newest = finish()
	}
	live := srv.register(KindClosedLoop, 3, false)
	srv.settle(live, StateRunning, "")

	h := srv.Handler()
	for _, tc := range []struct {
		id    string
		found bool
	}{{live.ID, true}, {newest.ID, true}, {pushed.ID, false}, {"job-x/../1", false}} {
		wantCode, wantBody := http.StatusNotFound, "no such job\n"
		for _, st := range srv.snapshot() {
			if st.ID == tc.id {
				wantCode, wantBody = http.StatusOK, string(encodeNDJSON(st))
			}
		}
		if (wantCode == http.StatusOK) != tc.found {
			t.Fatalf("the snapshot has %s: %v, want %v", tc.id, !tc.found, tc.found)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+url.PathEscape(tc.id), nil))
		if rec.Code != wantCode || rec.Body.String() != wantBody || rec.Header().Get("Content-Type") == "" {
			t.Errorf("GET %s = %d %q, want %d %q", tc.id, rec.Code, rec.Body, wantCode, wantBody)
		}
	}
}
