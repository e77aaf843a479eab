package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
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
