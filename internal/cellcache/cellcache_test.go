package cellcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testKey(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

func mustOpen(t *testing.T, dir string, maxBytes int64) *Cache {
	t.Helper()
	c, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPutGetRoundTrip(t *testing.T) {
	c := mustOpen(t, t.TempDir(), 0)
	key := testKey("unit-0")
	payload := []byte(`{"elapsed":1.25,"tasks":640}`)
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if string(got) != string(payload) {
		t.Fatalf("payload %s, want %s", got, payload)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("stats %+v, want 1 hit, 1 miss", st)
	}
}

func TestReopenPersists(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, 0)
	key := testKey("persist")
	if err := c.Put(key, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	c2 := mustOpen(t, dir, 0)
	if _, ok := c2.Get(key); !ok {
		t.Fatal("entry lost across reopen")
	}
}

func TestCorruptEntryIsAMissNeverACrash(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, 0)
	key := testKey("corrupt")
	if err := c.Put(key, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"truncated":    []byte(`{"version":1,"key":"` + key + `","payload":{"v`),
		"not-json":     []byte("\x00\x01garbage"),
		"empty":        {},
		"wrong-key":    mustEnvelope(t, Version, testKey("other"), `{"v":1}`),
		"version-skew": mustEnvelope(t, Version+1, key, `{"v":1}`),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if err := c.Put(key, []byte(`{"v":1}`)); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(key); ok {
				t.Fatalf("%s entry served as a hit", name)
			}
			// The corrupt file must be gone so the next run can recompute
			// and rewrite it.
			if _, err := os.Stat(c.path(key)); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry not deleted: %v", err)
			}
			// Recompute path: Put again, Get hits.
			if err := c.Put(key, []byte(`{"v":2}`)); err != nil {
				t.Fatal(err)
			}
			if got, ok := c.Get(key); !ok || string(got) != `{"v":2}` {
				t.Fatalf("recompute-after-corruption failed: %q %v", got, ok)
			}
		})
	}
	if c.Stats().Errors == 0 {
		t.Fatal("corrupt entries not counted as errors")
	}
}

func mustEnvelope(t *testing.T, version int, key, payload string) []byte {
	t.Helper()
	data, err := json.Marshal(envelope{Version: version, Key: key, Payload: json.RawMessage(payload)})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDeletedFileIsAMiss(t *testing.T) {
	c := mustOpen(t, t.TempDir(), 0)
	key := testKey("gone")
	if err := c.Put(key, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	os.Remove(c.path(key))
	if _, ok := c.Get(key); ok {
		t.Fatal("hit for a deleted entry file")
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	c := mustOpen(t, t.TempDir(), 0)
	for _, key := range []string{"", "short", "../../../etc/passwd", "ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789"} {
		if _, ok := c.Get(key); ok {
			t.Fatalf("Get(%q) hit", key)
		}
		if err := c.Put(key, []byte(`{}`)); err == nil {
			t.Fatalf("Put(%q) accepted", key)
		}
	}
}

func TestPutRejectsInvalidJSON(t *testing.T) {
	c := mustOpen(t, t.TempDir(), 0)
	if err := c.Put(testKey("k"), []byte("not json")); err == nil {
		t.Fatal("invalid JSON payload accepted")
	}
}

func TestLRUEviction(t *testing.T) {
	// Entries are ~80 bytes each with the envelope; cap the store so only
	// about three fit.
	c := mustOpen(t, t.TempDir(), 400)
	keys := make([]string, 5)
	for i := range keys {
		keys[i] = testKey(fmt.Sprintf("evict-%d", i))
		if err := c.Put(keys[i], []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if ev := c.Stats().Evictions; ev == 0 {
		t.Fatal("no evictions despite exceeding the cap")
	}
	// The most recently written key always survives.
	if _, ok := c.Get(keys[4]); !ok {
		t.Fatal("most recent entry evicted")
	}
	// The oldest keys are the evicted ones.
	if _, ok := c.Get(keys[0]); ok {
		t.Fatal("least-recently-used entry survived past the cap")
	}
}

func TestLRUGetRefreshesRecency(t *testing.T) {
	c := mustOpen(t, t.TempDir(), 260)
	k0, k1 := testKey("a"), testKey("b")
	if err := c.Put(k0, []byte(`{"i":0}`)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(k1, []byte(`{"i":1}`)); err != nil {
		t.Fatal(err)
	}
	// Touch k0 so k1 becomes the LRU victim of the next overflow.
	if _, ok := c.Get(k0); !ok {
		t.Fatal("expected hit on k0")
	}
	if err := c.Put(testKey("c"), []byte(`{"i":2}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(k0); !ok {
		t.Fatal("recently-touched entry was evicted over the stale one")
	}
}

func TestIndexRebuildFromObjects(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, 0)
	key := testKey("rebuild")
	if err := c.Put(key, []byte(`{"v":7}`)); err != nil {
		t.Fatal(err)
	}
	// Corrupt the index file; Open must rebuild from the objects dir.
	if err := os.WriteFile(filepath.Join(dir, indexName), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2 := mustOpen(t, dir, 0)
	got, ok := c2.Get(key)
	if !ok || string(got) != `{"v":7}` {
		t.Fatalf("rebuilt cache lost the entry: %q %v", got, ok)
	}
	// Missing index entirely.
	os.Remove(filepath.Join(dir, indexName))
	c3 := mustOpen(t, dir, 0)
	if _, ok := c3.Get(key); !ok {
		t.Fatal("missing-index rebuild lost the entry")
	}
}

func TestDiscard(t *testing.T) {
	c := mustOpen(t, t.TempDir(), 0)
	key := testKey("discard")
	if err := c.Put(key, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	c.Discard(key)
	if _, ok := c.Get(key); ok {
		t.Fatal("discarded entry still served")
	}
}

// Concurrent workers hammering overlapping keys with a tight size cap:
// run under -race in CI. Every Get must return either a miss or the exact
// payload written for that key.
func TestConcurrentPutGetEvict(t *testing.T) {
	c := mustOpen(t, t.TempDir(), 2000)
	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Overlapping key space across workers.
				id := (w*perWorker + i) % 40
				key := testKey(fmt.Sprintf("conc-%d", id))
				want := fmt.Sprintf(`{"id":%d}`, id)
				if err := c.Put(key, []byte(want)); err != nil {
					errs <- err
					return
				}
				if got, ok := c.Get(key); ok && string(got) != want {
					errs <- fmt.Errorf("key %d: got %s want %s", id, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits == 0 {
		t.Fatal("no hits under concurrency")
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	c := mustOpen(t, t.TempDir(), 0)
	for i := 0; i < 50; i++ {
		if err := c.Put(testKey(fmt.Sprintf("nb-%d", i)), []byte(`{"x":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Evictions != 0 {
		t.Fatal("unbounded cache evicted")
	}
	if c.Len() != 50 {
		t.Fatalf("Len = %d, want 50", c.Len())
	}
}

// Get reads entries outside the lock, so a Put or Discard of the same key
// can land between its read and its bookkeeping. Run under -race: every
// hit must carry the key's payload, every Get must count as exactly one
// hit or miss, and the size accounting must match the index afterwards.
func TestConcurrentGetPutDiscardSameKeys(t *testing.T) {
	c := mustOpen(t, t.TempDir(), 0)
	const workers, perWorker, keys = 6, 60, 3
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perWorker {
				id := (w + i) % keys
				key := testKey(fmt.Sprintf("same-%d", id))
				want := fmt.Sprintf(`{"id":%d}`, id)
				switch (w + i) % 3 {
				case 0:
					if err := c.Put(key, []byte(want)); err != nil {
						errs <- err
					}
				case 1:
					c.Discard(key)
				}
				if got, ok := c.Get(key); ok && string(got) != want {
					errs <- fmt.Errorf("key %d: got %s want %s", id, got, want)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := c.Stats()
	if st.Hits+st.Misses != workers*perWorker {
		t.Fatalf("hits %d + misses %d != %d Gets", st.Hits, st.Misses, workers*perWorker)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var size int64
	for _, e := range c.index {
		size += e.Size
	}
	if size != c.size {
		t.Fatalf("index entries sum to %d bytes, cache accounts %d", size, c.size)
	}
}
