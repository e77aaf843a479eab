package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
)

// TestCacheHitServesWithoutEngine is the cache's core contract: a repeat
// submission returns byte-identical bytes AND never touches the engine
// pool — Acquired and Built are frozen across the hit, observable through
// the pool counters.
func TestCacheHitServesWithoutEngine(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := `{"kind":"open-loop","dims":[4,4],"rates":[0.05,0.2],"warmup":8,"measure":24,"drain":32,"seed":42}`

	resp, first := submit(t, ts, "", body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Meshd-Cache") != "miss" {
		t.Fatalf("first submission: status %d cache %q", resp.StatusCode, resp.Header.Get("X-Meshd-Cache"))
	}
	before := srv.Pool().Stats()

	resp, second := submit(t, ts, "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if h := resp.Header.Get("X-Meshd-Cache"); h != "hit" {
		t.Fatalf("X-Meshd-Cache = %q, want hit", h)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cache hit body differs from the original stream")
	}
	after := srv.Pool().Stats()
	if after.Acquired != before.Acquired || after.Built != before.Built {
		t.Fatalf("cache hit touched the pool: before %+v, after %+v", before, after)
	}
	cs := srv.CacheStats()
	if cs.Hits != 1 || cs.Entries != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit, 1 entry", cs)
	}
}

// TestCacheCanonicalization pins what hits and what misses over HTTP:
// key order, whitespace, explicit defaults and fan-out width changes all
// hit; seed or option changes miss.
func TestCacheCanonicalization(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, want := submit(t, ts, "", `{"kind":"open-loop","dims":[4,4],"rates":[0.2],"warmup":8,"measure":24,"drain":32,"seed":9}`)

	hits := map[string]string{
		"key-order":        `{"seed":9,"drain":32,"measure":24,"warmup":8,"rates":[0.2],"dims":[4,4],"kind":"open-loop"}`,
		"whitespace":       "{ \"kind\" : \"open-loop\",\n \"dims\": [4,4], \"rates\": [0.2], \"warmup\": 8, \"measure\": 24, \"drain\": 32, \"seed\": 9 }",
		"explicit-default": `{"kind":"open-loop","dims":[4,4],"rates":[0.2],"warmup":8,"measure":24,"drain":32,"seed":9,"lambda":1,"link_rate":1}`,
		"workers-change":   `{"kind":"open-loop","dims":[4,4],"rates":[0.2],"warmup":8,"measure":24,"drain":32,"seed":9,"workers":2}`,
	}
	for name, body := range hits {
		t.Run("hit/"+name, func(t *testing.T) {
			resp, got := submit(t, ts, "", body)
			if h := resp.Header.Get("X-Meshd-Cache"); h != "hit" {
				t.Fatalf("X-Meshd-Cache = %q, want hit", h)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("hit body differs from original")
			}
		})
	}

	misses := map[string]string{
		"seed":   `{"kind":"open-loop","dims":[4,4],"rates":[0.2],"warmup":8,"measure":24,"drain":32,"seed":10}`,
		"rate":   `{"kind":"open-loop","dims":[4,4],"rates":[0.35],"warmup":8,"measure":24,"drain":32,"seed":9}`,
		"lambda": `{"kind":"open-loop","dims":[4,4],"rates":[0.2],"warmup":8,"measure":24,"drain":32,"seed":9,"lambda":2}`,
		"faults": `{"kind":"open-loop","dims":[4,4],"rates":[0.2],"warmup":8,"measure":24,"drain":32,"seed":9,"faults":1}`,
	}
	for name, body := range misses {
		t.Run("miss/"+name, func(t *testing.T) {
			resp, _ := submit(t, ts, "", body)
			if h := resp.Header.Get("X-Meshd-Cache"); h != "miss" {
				t.Fatalf("X-Meshd-Cache = %q, want miss", h)
			}
		})
	}
}

// TestCacheFormatKeyedSeparately: the same spec in NDJSON and CSV are
// different response bodies and must occupy different cache entries.
func TestCacheFormatKeyedSeparately(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body := `{"kind":"open-loop","dims":[4,4],"rates":[0.2],"warmup":8,"measure":24,"drain":32,"seed":9}`

	submit(t, ts, "", body)
	resp, csvBody := submit(t, ts, "?format=csv", body)
	if h := resp.Header.Get("X-Meshd-Cache"); h != "miss" {
		t.Fatalf("CSV after NDJSON: X-Meshd-Cache = %q, want miss", h)
	}
	resp, csvAgain := submit(t, ts, "?format=csv", body)
	if h := resp.Header.Get("X-Meshd-Cache"); h != "hit" {
		t.Fatalf("repeat CSV: X-Meshd-Cache = %q, want hit", h)
	}
	if !bytes.Equal(csvBody, csvAgain) {
		t.Fatal("cached CSV body differs")
	}
}

// TestResultCacheEviction exercises the LRU bounds directly: the entry
// bound evicts oldest-first, the byte bound refuses oversized bodies.
func TestResultCacheEviction(t *testing.T) {
	c := newResultCache(2, 100)
	c.put("a", bytes.Repeat([]byte{'a'}, 40))
	c.put("b", bytes.Repeat([]byte{'b'}, 40))
	if c.get("a") == nil {
		t.Fatal("a evicted too early")
	}
	// Third entry exceeds the byte bound; "b" is now LRU and must go.
	c.put("c", bytes.Repeat([]byte{'c'}, 40))
	if c.get("b") != nil {
		t.Fatal("LRU entry survived eviction")
	}
	if c.get("a") == nil || c.get("c") == nil {
		t.Fatal("wrong entry evicted")
	}
	// Oversized bodies never enter.
	c.put("d", bytes.Repeat([]byte{'d'}, 101))
	if c.get("d") != nil {
		t.Fatal("oversized body cached")
	}
	s := c.Stats()
	if s.Entries != 2 || s.Bytes != 80 || s.Evictions != 1 {
		t.Fatalf("stats = %+v", s)
	}

	// A disabled cache (zero bounds) misses and stores nothing.
	off := newResultCache(0, 0)
	off.put("x", []byte("x"))
	if off.get("x") != nil {
		t.Fatal("disabled cache stored a body")
	}
}

// TestRawHitMatchesParsedHit is the digest path's contract, in both
// formats: a repeat of bytes that already resolved to an entry is served
// what the parsed path serves — the same body, the same headers bar the
// job ID, the same registry record, one cache hit and no extra miss — and
// a digest dies with its entry, so after eviction the same bytes run an
// engine again.
func TestRawHitMatchesParsedHit(t *testing.T) {
	base := `{"kind":"open-loop","dims":[4,4],"rates":[0.05,0.2],"warmup":8,"measure":24,"drain":32,"seed":42}`
	// The same spec with its keys reordered, explicit defaults and another
	// fan-out width: a different digest, the same key.
	spelled := `{"seed":42,"workers":2,"drain":32,"measure":24,"warmup":8,"link_rate":1,"lambda":1,"rates":[0.05,0.2],"dims":[4,4],"kind":"open-loop"}`
	for _, format := range []string{"ndjson", "csv"} {
		t.Run(format, func(t *testing.T) {
			query := "?format=" + format
			srv := New(Config{CacheEntries: 1})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			miss, missBody := submit(t, ts, query, base)
			parsed, parsedBody := submit(t, ts, query, spelled)
			srv.cache.mu.Lock()
			_, named := srv.cache.requests[digestRequest(query[1:], []byte(spelled)).short()]
			records := len(srv.cache.requests)
			srv.cache.mu.Unlock()
			if !named || records != 1 {
				t.Fatalf("after the parsed hit: its digest named %v, %d digest records; want its alone", named, records)
			}
			raw, rawBody := submit(t, ts, query, spelled)

			for i, resp := range []*http.Response{miss, parsed, raw} {
				if want := []string{"miss", "hit", "hit"}[i]; resp.StatusCode != http.StatusOK || resp.Header.Get("X-Meshd-Cache") != want {
					t.Fatalf("response %d: status %d, X-Meshd-Cache %q, want 200 %s", i, resp.StatusCode, resp.Header.Get("X-Meshd-Cache"), want)
				}
			}
			if !bytes.Equal(parsedBody, missBody) || !bytes.Equal(rawBody, missBody) {
				t.Fatal("a hit's body differs from the miss's")
			}
			if miss.Header.Get("Content-Type") != raw.Header.Get("Content-Type") {
				t.Fatalf("Content-Type: miss %q, digest hit %q", miss.Header.Get("Content-Type"), raw.Header.Get("Content-Type"))
			}
			// Date is the server's clock, not the handler's.
			hp, hr := parsed.Header.Clone(), raw.Header.Clone()
			for _, h := range []http.Header{hp, hr} {
				h.Del("X-Meshd-Job")
				h.Del("Date")
			}
			if !reflect.DeepEqual(hp, hr) {
				t.Fatalf("headers differ:\nparsed %v\ndigest %v", hp, hr)
			}
			if cl := raw.Header.Get("Content-Length"); cl != strconv.Itoa(len(rawBody)) {
				t.Fatalf("Content-Length = %q for a %d-byte body", cl, len(rawBody))
			}

			var jobs [3]JobStatus
			for i, resp := range []*http.Response{miss, parsed, raw} {
				st, ok := getJob(t, ts, resp.Header.Get("X-Meshd-Job"))
				if !ok || st.State != StateDone {
					t.Fatalf("job %d = %+v (found %v)", i, st, ok)
				}
				jobs[i] = st
			}
			for i, st := range jobs {
				if st.Kind != KindOpenLoop || st.Cells != 2 || st.Rows != 2 || st.Cache != []string{"miss", "hit", "hit"}[i] {
					t.Fatalf("job %d = %+v", i, st)
				}
			}
			if cs := srv.CacheStats(); cs.Hits != 2 || cs.Misses != 1 || cs.Entries != 1 {
				t.Fatalf("cache stats = %+v, want 2 hits, 1 miss, 1 entry", cs)
			}

			// Another spec takes the one entry; the digest must go with it.
			if resp, _ := submit(t, ts, query, shortSpec(7)); resp.Header.Get("X-Meshd-Cache") != "miss" {
				t.Fatal("the evicting spec hit")
			}
			before := srv.Pool().Stats()
			resp, again := submit(t, ts, query, spelled)
			if resp.Header.Get("X-Meshd-Cache") != "miss" || !bytes.Equal(again, missBody) {
				t.Fatalf("after eviction: X-Meshd-Cache %q, body equal %v; want a miss with the same body", resp.Header.Get("X-Meshd-Cache"), bytes.Equal(again, missBody))
			}
			if after := srv.Pool().Stats(); after.Acquired+after.Built == before.Acquired+before.Built {
				t.Fatalf("after eviction the request took no engine: before %+v, after %+v", before, after)
			}
			if cs := srv.CacheStats(); cs.Hits != 2 || cs.Misses != 3 || cs.Evictions != 2 {
				t.Fatalf("cache stats = %+v, want 2 hits, 3 misses, 2 evictions", cs)
			}
		})
	}
}

// TestRequestDigestShortKey: the requests map keys on a digest's first 8
// bytes, so two digests sharing them must cost a digest miss, never the
// other request's body, and the record one overwrote must not be deleted
// by the other entry's eviction.
func TestRequestDigestShortKey(t *testing.T) {
	c := newResultCache(2, 100)
	c.put("a", []byte("a"))
	c.put("b", []byte("b"))
	var da, db requestDigest
	db[len(db)-1] = 1 // same first 8 bytes as da
	c.name("a", da, hit{cells: 1})
	if h, ok := c.lookup(da); !ok || string(h.body) != "a" {
		t.Fatalf("lookup(da) = %q, %v; want a's body", h.body, ok)
	}
	if h, ok := c.lookup(db); ok {
		t.Fatalf("lookup(db) served %q from a digest that only shares its first bytes", h.body)
	}
	c.name("b", db, hit{cells: 1})
	if _, ok := c.lookup(da); ok {
		t.Fatal("lookup(da) hit after b took the record")
	}
	c.get("b")
	c.put("c", []byte("c")) // evicts a, whose record b overwrote
	if c.get("a") != nil {
		t.Fatal("a was not evicted")
	}
	if h, ok := c.lookup(db); !ok || string(h.body) != "b" {
		t.Fatalf("after a's eviction lookup(db) = %q, %v; want b's body", h.body, ok)
	}
	// A key evicted between its get and its name names nothing.
	c.name("a", da, hit{cells: 1})
	if h, ok := c.lookup(da); ok {
		t.Fatalf("lookup(da) served %q after naming an evicted key", h.body)
	}
}

// discardWriter is a reusable minimal ResponseWriter: the caller clears
// its header between requests, and the body goes nowhere.
type discardWriter struct{ header http.Header }

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// primedHit returns a function that serves one request through a
// server's Handler().ServeHTTP, the request object and writer reused, and
// has already served it twice: a miss and then a hit.
func primedHit(tb testing.TB) func() {
	h := New(Config{}).Handler()
	body := []byte(shortSpec(1))
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", rd)
	w := &discardWriter{header: http.Header{}}
	serve := func() {
		clear(w.header)
		rd.Reset(body)
		h.ServeHTTP(w, req)
	}
	serve()
	serve()
	if c := w.header.Get("X-Meshd-Cache"); c != "hit" {
		tb.Fatalf("the primed request was a %q, want a hit", c)
	}
	return serve
}

// hitHandlerAllocs is TestHitHandlerAllocs's ratchet: the allocations of
// one repeated request through the handler. Only ever lower it.
const hitHandlerAllocs = 9

// TestHitHandlerAllocs holds a repeated request's allocations through
// Handler().ServeHTTP to the ratchet.
func TestHitHandlerAllocs(t *testing.T) {
	serve := primedHit(t)
	got := testing.AllocsPerRun(1000, serve)
	t.Logf("a repeated request allocates %v times", got)
	if got > hitHandlerAllocs {
		t.Fatalf("a repeated request allocates %v times, ratchet %d", got, hitHandlerAllocs)
	}
}

// missHandlerAllocs is TestMissHandlerAllocs's ratchet: the allocations of
// one warm-pool miss through the handler (75 while each sweep built a
// keyed map and a whole grid.Shape to check its options). Only ever lower
// it.
const missHandlerAllocs = 66

// TestMissHandlerAllocs holds a warm-pool miss's allocations through
// Handler().ServeHTTP to the ratchet: the 12-cell 8x8 open-loop spec the
// standing benchmark's meshd-miss workload submits, every request under a
// seed no other has, so each one runs its sweep on a simulation the pool
// already holds and streams twelve rows. The count holds on the build that
// ships: under the race detector it varies (see raceEnabled), and CI's
// no-race allocation step runs it.
func TestMissHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	h := New(Config{}).Handler()
	const runs = 8
	bodies := make([][]byte, runs+3)
	for i := range bodies {
		bodies[i] = fmt.Appendf(nil, `{"kind":"open-loop","dims":[8,8],"routers":["limited","congested"],`+
			`"patterns":["uniform","transpose"],"rates":[0.05,0.1,0.2],"warmup":64,"measure":256,"drain":256,`+
			`"node_capacity":8,"seed":%d,"workers":1}`, 1000+i)
	}
	rd := bytes.NewReader(nil)
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", rd)
	w := &discardWriter{header: http.Header{}}
	next := 0
	serve := func() {
		clear(w.header)
		rd.Reset(bodies[next])
		next++
		h.ServeHTTP(w, req)
		if c := w.header.Get("X-Meshd-Cache"); c != "miss" {
			t.Fatalf("request %d was a %q, want a miss", next, c)
		}
	}
	serve() // builds the pool's simulation: the rest are warm-pool misses
	serve()
	got := testing.AllocsPerRun(runs, serve)
	t.Logf("a warm-pool miss allocates %v times", got)
	if got > missHandlerAllocs {
		t.Fatalf("a warm-pool miss allocates %v times, ratchet %d", got, missHandlerAllocs)
	}
}

// BenchmarkHitHandler serves a repeated request through
// Handler().ServeHTTP.
func BenchmarkHitHandler(b *testing.B) {
	serve := primedHit(b)
	b.ReportAllocs()
	for b.Loop() {
		serve()
	}
}
