package mwl

import (
	"container/list"

	"repro/internal/store"
)

// Store is a persistent solution store layered under the Service's
// in-memory cache: solved problems are written through to it keyed by
// canonical problem hash, and cache misses consult it before running
// the solver, so a restarted process serves previously solved problems
// with Solution.Cached set instead of recomputing them.
//
// Implementations must be safe for concurrent use. Get treats every
// failure mode — missing, unreadable, corrupted — as a miss, so a
// damaged store degrades to recomputation, never to an outage.
type Store interface {
	// Get returns the stored solution for a problem hash, or ok=false
	// if the key is absent or the entry cannot be decoded.
	Get(key string) (Solution, bool)
	// Put persists a solution under a problem hash, replacing any
	// previous entry atomically.
	Put(key string, sol Solution) error
}

// FileStore is the file-backed Store: one JSON file per problem hash in
// a single directory, written atomically (temp file + rename) so a
// crash never leaves a torn entry. It implements Store and is safe for
// concurrent use.
type FileStore struct {
	d *store.Dir
}

// NewFileStore opens (creating if needed) a file-backed solution store
// rooted at dir.
func NewFileStore(dir string) (*FileStore, error) {
	d, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return &FileStore{d: d}, nil
}

// Get loads the solution stored under key. A missing, unreadable or
// corrupted entry is a miss: the caller recomputes and the next Put
// repairs the entry.
func (fs *FileStore) Get(key string) (Solution, bool) {
	blob, ok, err := fs.d.Get(key)
	if err != nil || !ok {
		return Solution{}, false
	}
	sol, err := DecodeSolution(blob)
	if err != nil {
		return Solution{}, false
	}
	if sol.Datapath == nil {
		// Decoded but nonsensical (e.g. valid JSON of the wrong shape):
		// treat as corruption, not as a servable answer.
		return Solution{}, false
	}
	return sol, true
}

// Put persists the solution under key. The Cached flag is cleared so a
// stored entry re-served later reports its own cache status, not the
// status it had when stored.
func (fs *FileStore) Put(key string, sol Solution) error {
	sol.Cached = false
	return fs.d.Put(key, sol.AppendJSON(make([]byte, 0, sol.sizeHint())))
}

// Len reports how many solutions the store holds on disk.
func (fs *FileStore) Len() (int, error) { return fs.d.Len() }

// Dir reports the directory the store is rooted at.
func (fs *FileStore) Dir() string { return fs.d.Path() }

// ---- bounded LRU over completed solutions ----

// lruEntry is one cached solution with the response a cache hit
// answers with and its approximate memory footprint.
type lruEntry struct {
	key  string
	sol  Solution
	hit  []byte // sol's compact JSON encoding with Cached set, plus '\n'
	size int64
	// unverified marks an entry Admit inserted, on a verifying Service,
	// that no Verify has checked yet; the Service's mutex guards it.
	unverified bool
}

// lruCache is a bounded least-recently-used map from problem hash to
// Solution with an entry cap and an approximate byte cap. It is not
// safe for concurrent use — the Service guards it with its own mutex.
type lruCache struct {
	maxEntries int   // <= 0: unlimited
	maxBytes   int64 // <= 0: unlimited

	ll    *list.List // front = most recently used; values are *lruEntry
	index map[string]*list.Element
	bytes int64

	evictions uint64
}

func newLRUCache(maxEntries int, maxBytes int64) *lruCache {
	return &lruCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		index:      make(map[string]*list.Element),
	}
}

// peek returns the cached entry without refreshing its recency: a
// replication fetch from a peer replica is not local workload evidence
// and must not keep an otherwise-cold entry pinned in the LRU.
func (c *lruCache) peek(key string) (*lruEntry, bool) {
	el, ok := c.index[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*lruEntry), true
}

// touch marks e most recently used if it is still the entry cached
// under its key.
func (c *lruCache) touch(e *lruEntry) {
	if el, ok := c.index[e.key]; ok && el.Value.(*lruEntry) == e {
		c.ll.MoveToFront(el)
	}
}

// remove drops e if it is still the entry cached under its key, and
// reports whether it was.
func (c *lruCache) remove(e *lruEntry) bool {
	el, ok := c.index[e.key]
	if !ok || el.Value.(*lruEntry) != e {
		return false
	}
	c.ll.Remove(el)
	delete(c.index, e.key)
	c.bytes -= e.size
	return true
}

// add inserts (or refreshes) an entry made by newLRUEntry and evicts
// from the cold end until both caps hold again. An entry alone larger
// than the whole byte cap is rejected up front (counted as one
// eviction) — admitting it would flush every warm entry before the
// newcomer itself went, and the persistent store still has it.
func (c *lruCache) add(ne *lruEntry) {
	key, size := ne.key, ne.size
	if c.maxBytes > 0 && size > c.maxBytes {
		if el, ok := c.index[key]; ok {
			c.remove(el.Value.(*lruEntry))
		}
		c.evictions++
		return
	}
	if el, ok := c.index[key]; ok {
		c.bytes += size - el.Value.(*lruEntry).size
		el.Value = ne
		c.ll.MoveToFront(el)
	} else {
		c.index[key] = c.ll.PushFront(ne)
		c.bytes += size
	}
	for c.over() {
		c.evictOldest()
	}
}

func (c *lruCache) over() bool {
	if c.ll.Len() == 0 {
		return false
	}
	return (c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes)
}

func (c *lruCache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	c.remove(el.Value.(*lruEntry))
	c.evictions++
}

func (c *lruCache) len() int { return c.ll.Len() }

func (c *lruCache) clear() {
	c.ll.Init()
	c.index = make(map[string]*list.Element)
	c.bytes = 0
}

// newLRUEntry makes the cache entry for sol, encoding once the response
// of every hit it will answer: compact JSON with Cached set, newline-
// terminated as cmd/mwld writes its responses. The entry is charged at
// the length of sol's own encoding plus the key — an approximation,
// cheap and deterministic.
func newLRUEntry(key string, sol Solution) *lruEntry {
	sol.Cached = true
	blob := sol.AppendJSON(make([]byte, 0, sol.sizeHint()))
	sol.Cached = false
	return &lruEntry{
		key:  key,
		sol:  sol,
		hit:  append(blob, '\n'),
		size: int64(len(blob) - len(cachedField) + len(key)),
	}
}

// CacheStats is a point-in-time snapshot of the Service's cache and
// persistent-store counters.
type CacheStats struct {
	// Entries and Bytes describe the in-memory LRU right now; Bytes is
	// the approximate footprint the byte cap is enforced against.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// InFlight counts solves currently running or waiting that later
	// duplicates can join; in-flight entries are never evicted.
	InFlight int `json:"in_flight"`
	// Hits counts solves served without running a solver: an LRU hit or
	// joining an in-flight duplicate. Misses counts leader solves.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Evictions counts LRU entries dropped to enforce the caps.
	Evictions uint64 `json:"evictions"`
	// StoreHits/StoreMisses count persistent-store lookups by leaders;
	// StorePutErrors counts failed write-throughs (the solve still
	// succeeds — persistence is best-effort).
	StoreHits      uint64 `json:"store_hits"`
	StoreMisses    uint64 `json:"store_misses"`
	StorePutErrors uint64 `json:"store_put_errors"`
	// VerifyFailures counts solutions rejected by mwl.Verify on a
	// Service with verification enabled: corrupted store entries demoted
	// to misses plus fresh solves that failed validation.
	VerifyFailures uint64 `json:"verify_failures"`
}
