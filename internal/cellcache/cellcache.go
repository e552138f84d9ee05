// Package cellcache is the campaign result cache: a content-addressed,
// on-disk store of per-unit experiment results. Every (benchmark,
// scheduler, rep) unit of a campaign is a pure, byte-reproducible function
// of its inputs (the determinism contract of DESIGN.md §7/§12), so a unit
// result can be keyed by a canonical hash of those inputs and replayed on
// any later run of the same configuration — a warm rerun of a 30-rep
// campaign costs file reads instead of simulations, and an interrupted
// campaign resumes from what it already committed.
//
// The store is deliberately dumb about its payloads: keys are hex SHA-256
// strings computed by the caller (internal/harness owns the key contract,
// DESIGN.md §13) and payloads are opaque bytes. What the package does own:
//
//   - Durability: entries are written to a temp file and renamed into
//     place (internal/fsatomic), so a crash or SIGINT mid-write can never
//     produce a torn entry under a valid key.
//   - Corruption tolerance: an unreadable, unparsable, truncated,
//     version-skewed, or key-mismatched entry is a miss — the entry is
//     deleted and the unit recomputed. A cache can never crash a campaign.
//   - Bounded size: an index file tracks entry sizes and last-use order;
//     when the configured cap is exceeded, least-recently-used entries are
//     evicted.
//   - Concurrency: safe for concurrent use from pool workers (-jobs N) and
//     from multiple processes sharing a directory (atomic renames; a
//     cross-process eviction race reads as a miss).
package cellcache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/ilan-sched/ilan/internal/fsatomic"
)

// Version is the entry schema version. Entries written by a different
// version are misses (recomputed and rewritten), so the format can evolve
// without poisoning old caches. It also feeds the harness's cache keys,
// so a bump moves every unit to a new address. Version 2: task traces in
// unit payloads are packed (taskrt.PackedTrace).
const Version = 2

const (
	indexName  = "index.json"
	objectsDir = "objects"
)

// envelope wraps a payload on disk with enough self-description to detect
// skew: the schema version and the key the payload was stored under (a
// renamed or cross-linked file fails the key check and reads as a miss).
type envelope struct {
	Version int             `json:"version"`
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
}

// indexFile is the persisted index: entry sizes and LRU clock positions.
// It is an optimization, not a source of truth — Open rebuilds it from the
// objects directory when it is missing or corrupt.
type indexFile struct {
	Version int                   `json:"version"`
	Seq     int64                 `json:"seq"`
	Entries map[string]indexEntry `json:"entries"`
}

type indexEntry struct {
	Size int64 `json:"size"`
	Used int64 `json:"used"` // LRU clock value at last touch
}

// Stats are cumulative cache counters since Open.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Errors counts entries dropped as corrupt/skewed plus failed writes —
	// all non-fatal (the unit recomputes), surfaced for monitoring.
	Errors int64 `json:"errors"`
}

// Cache is an open store. Methods are safe for concurrent use.
type Cache struct {
	dir      string
	maxBytes int64 // <= 0: unbounded

	mu    sync.Mutex
	index map[string]indexEntry
	seq   int64
	size  int64

	hits, misses, evictions, errors atomic.Int64
}

// Open opens (creating if needed) the cache rooted at dir. maxBytes caps
// the total payload size before LRU eviction; <= 0 means unbounded. A
// missing or corrupt index file is rebuilt by scanning the objects
// directory (entry mtimes seed the LRU order).
func Open(dir string, maxBytes int64) (*Cache, error) {
	if err := os.MkdirAll(filepath.Join(dir, objectsDir), 0o755); err != nil {
		return nil, fmt.Errorf("cellcache: %w", err)
	}
	c := &Cache{dir: dir, maxBytes: maxBytes}
	if !c.loadIndex() {
		c.rebuildIndex()
	}
	return c, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Len returns the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// Stats returns the cumulative counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Errors:    c.errors.Load(),
	}
}

// validKey reports whether key is a hex digest usable as a file name.
// Anything else (path separators, empty strings) is rejected outright so a
// malformed key can never escape the objects directory.
func validKey(key string) bool {
	if len(key) < 32 || len(key) > 128 {
		return false
	}
	for _, r := range key {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// path returns the entry file for key, sharded by the first byte of the
// digest to keep directory listings short.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, objectsDir, key[:2], key+".json")
}

// Get returns the payload stored under key. Every failure mode —
// unknown key, unreadable file, bad JSON, version skew, key mismatch — is
// a miss; corrupt entries are deleted so they are not re-read every run.
// The entry is read and parsed outside the lock, so concurrent Gets
// overlap their disk reads.
func (c *Cache) Get(key string) ([]byte, bool) {
	if !validKey(key) {
		c.misses.Add(1)
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.index[key]
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	payload, err := c.read(key)

	c.mu.Lock()
	defer c.mu.Unlock()
	cur, ok := c.index[key]
	switch {
	case !ok:
		// Evicted, discarded or dropped by another Get while this one
		// read: the entry is gone either way.
		c.misses.Add(1)
		return nil, false
	case err != nil:
		// Drop the entry only if it is still the one that failed to
		// read; a Put or a Get that touched it since leaves it alone.
		if cur == e {
			os.Remove(c.path(key))
			c.dropLocked(key, cur)
			c.errors.Add(1)
		}
		c.misses.Add(1)
		return nil, false
	}
	c.seq++
	cur.Used = c.seq
	c.index[key] = cur
	c.hits.Add(1)
	return payload, true
}

// read loads and checks the entry file for key.
func (c *Cache) read(key string) ([]byte, error) {
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	if env.Version != Version || env.Key != key || len(env.Payload) == 0 {
		return nil, fmt.Errorf("cellcache: entry %s is skewed or empty", key)
	}
	return env.Payload, nil
}

// Put stores payload under key, evicting least-recently-used entries if
// the size cap is exceeded. payload must be valid JSON (it is embedded
// verbatim in the entry envelope). Errors are returned for the caller to
// ignore or log — a failed Put never poisons the store thanks to the
// atomic write.
func (c *Cache) Put(key string, payload []byte) error {
	if !validKey(key) {
		c.errors.Add(1)
		return fmt.Errorf("cellcache: invalid key %q", key)
	}
	if !json.Valid(payload) {
		c.errors.Add(1)
		return fmt.Errorf("cellcache: payload for %s is not valid JSON", key)
	}
	data, err := json.Marshal(envelope{Version: Version, Key: key, Payload: payload})
	if err != nil {
		c.errors.Add(1)
		return fmt.Errorf("cellcache: %w", err)
	}
	path := c.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		c.errors.Add(1)
		return fmt.Errorf("cellcache: %w", err)
	}
	if err := fsatomic.WriteFileBytes(path, data); err != nil {
		c.errors.Add(1)
		return fmt.Errorf("cellcache: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.index[key]; ok {
		c.size -= old.Size
	}
	c.seq++
	c.index[key] = indexEntry{Size: int64(len(data)), Used: c.seq}
	c.size += int64(len(data))
	c.evictLocked(key)
	c.saveIndexLocked()
	return nil
}

// Discard removes an entry whose payload the caller found unusable (e.g.
// it fails to decode into the expected result type). The next Get is a
// miss and the unit recomputes.
func (c *Cache) Discard(key string) {
	if !validKey(key) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.index[key]; ok {
		os.Remove(c.path(key))
		c.dropLocked(key, e)
		c.errors.Add(1)
		c.saveIndexLocked()
	}
}

// Flush persists the in-memory index (LRU order advanced by Gets since the
// last Put). Called on CLI shutdown; losing it only staleness-skews LRU.
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.saveIndexLocked()
}

// dropLocked removes key from the in-memory index. Caller holds c.mu.
func (c *Cache) dropLocked(key string, e indexEntry) {
	delete(c.index, key)
	c.size -= e.Size
}

// evictLocked removes least-recently-used entries until the store fits the
// cap, never evicting keep (the entry just written). Caller holds c.mu.
func (c *Cache) evictLocked(keep string) {
	if c.maxBytes <= 0 {
		return
	}
	for c.size > c.maxBytes && len(c.index) > 1 {
		oldestKey := ""
		var oldest indexEntry
		for k, e := range c.index {
			if k == keep {
				continue
			}
			if oldestKey == "" || e.Used < oldest.Used ||
				(e.Used == oldest.Used && k < oldestKey) {
				oldestKey, oldest = k, e
			}
		}
		if oldestKey == "" {
			return
		}
		os.Remove(c.path(oldestKey))
		c.dropLocked(oldestKey, oldest)
		c.evictions.Add(1)
	}
}

// loadIndex reads the persisted index; false means rebuild.
func (c *Cache) loadIndex() bool {
	data, err := os.ReadFile(filepath.Join(c.dir, indexName))
	if err != nil {
		return false
	}
	var f indexFile
	if err := json.Unmarshal(data, &f); err != nil || f.Version != Version || f.Entries == nil {
		return false
	}
	c.index = make(map[string]indexEntry, len(f.Entries))
	c.seq = f.Seq
	c.size = 0
	for k, e := range f.Entries {
		if !validKey(k) {
			continue
		}
		c.index[k] = e
		c.size += e.Size
	}
	return true
}

// rebuildIndex reconstructs the index by scanning the objects directory:
// sizes from stat, LRU order from mtimes. Runs when the index file is
// missing or corrupt, so losing it costs a scan, never data.
func (c *Cache) rebuildIndex() {
	type scanned struct {
		key   string
		size  int64
		mtime int64
	}
	var found []scanned
	root := filepath.Join(c.dir, objectsDir)
	shards, _ := os.ReadDir(root)
	for _, sh := range shards {
		if !sh.IsDir() {
			continue
		}
		files, _ := os.ReadDir(filepath.Join(root, sh.Name()))
		for _, f := range files {
			key := strings.TrimSuffix(f.Name(), ".json")
			if !validKey(key) || !strings.HasSuffix(f.Name(), ".json") {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			found = append(found, scanned{key, info.Size(), info.ModTime().UnixNano()})
		}
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].mtime != found[j].mtime {
			return found[i].mtime < found[j].mtime
		}
		return found[i].key < found[j].key
	})
	c.index = make(map[string]indexEntry, len(found))
	c.seq = 0
	c.size = 0
	for _, s := range found {
		c.seq++
		c.index[s.key] = indexEntry{Size: s.size, Used: c.seq}
		c.size += s.size
	}
}

// saveIndexLocked persists the index atomically. Failures are counted and
// otherwise ignored: the index is reconstructible. Caller holds c.mu.
func (c *Cache) saveIndexLocked() {
	f := indexFile{Version: Version, Seq: c.seq, Entries: c.index}
	data, err := json.Marshal(f)
	if err != nil {
		c.errors.Add(1)
		return
	}
	if err := fsatomic.WriteFileBytes(filepath.Join(c.dir, indexName), data); err != nil {
		c.errors.Add(1)
	}
}
