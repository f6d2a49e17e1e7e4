package serve

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"lotuseater/internal/metrics"
)

// diskStore persists canonical artifact bodies across restarts. The cache
// key is already content-addressed, so persistence is exactly what the
// ROADMAP promised it would be: write the body to a file named by its
// content address, keep a small index from cache key to address, and
// re-derive everything else.
//
// Layout under the store directory:
//
//	index.json            snapshot: cache key -> {address, size, storedUnix}
//	index.journal         records appended since the snapshot
//	blobs/sha256-<hex>    one canonical artifact body per unique address
//
// A journal record is a little-endian uint32 payload length, the payload's
// CRC-32C as a little-endian uint32, and the payload: JSON {key, entry},
// or {key} alone for a drop. The index is the snapshot with the journal
// replayed over it. Two cache keys whose runs converged on identical bytes
// share one blob; a blob is deleted only when its last row goes.
//
// One writer goroutine owns every file write and serves its requests in
// order. A put writes its blob via temp+fsync+rename unless the store
// holds it already, appends its record with one write and one fsync, and
// only then publishes the row and reports the put done. A removed row's
// drop record is appended the same way before its blob goes. Compaction
// writes the index as a fresh snapshot, fsyncs the directory so the
// snapshot's rename is durable, and only then truncates the journal, so a
// crash between the two replays records the snapshot already holds. It
// runs at open, after GC or a corrupt blob removes rows, and when the
// journal holds more records than the index has rows, so a put costs O(1)
// on average. mu guards the in-memory state only and is never held across
// file I/O, so a Get never waits on an fsync; only the writer changes the
// maps, so it reads them without the lock.
//
// Disk is never trusted on the way back in: open stops replaying at the
// first record that is short, over maxRecordBytes, fails its checksum or
// does not decode, and drops rows whose blob is missing or mis-sized;
// every Get re-hashes its blob and drops the row (and file) on mismatch.
//
// GC passes bound the store by age (rows stored longer than maxAge ago)
// and by size (oldest-stored rows evict until the byte budget holds; the
// newest always survives, mirroring the in-memory LRU's invariant). One
// runs at open, so a store reopened under tighter bounds meets them at
// once, and, under an age bound, one on each tick of the writer's ticker.
// The size bound also runs after every put, so without an age bound there
// is no ticker. Rows leave in (stored time, key) order off a heap, so a put
// into a store at its budget costs O(log n) in memory, not a sort of the
// index.
type diskStore struct {
	dir      string
	maxBytes int64
	maxAge   time.Duration
	now      func() time.Time // injected by tests; time.Now in production

	mu      sync.Mutex
	index   map[string]*storeEntry
	refs    map[string]int // address -> live index entries
	size    int64          // unique blob bytes
	pending []storeOp      // the writer's inbox, oldest first
	closing bool           // Close has begun: the inbox takes nothing more

	hits, misses, removed uint64 // exposed via Stats for /metrics

	wake    chan struct{} // capacity 1: the inbox has work
	stopped chan struct{} // closed once the writer has drained and exited

	// Owned by the writer goroutine.
	journal *os.File
	records int          // records in the journal since the snapshot
	torn    bool         // an append failed, so the journal's tail is in doubt
	ticker  *time.Ticker // GC cadence; nil without an age bound
	order   ageOrder     // eviction order: every row, and some replaced or dropped since
}

// storeOp is one request to the writer: a put of body under key, whose
// then runs once its record is durable or the put has failed, or, when fn
// is set, fn to run on the writer goroutine.
type storeOp struct {
	key, address string
	body         []byte
	then         func()
	fn           func()
}

// storeEntry is one index row.
type storeEntry struct {
	Address string `json:"address"`
	Size    int64  `json:"size"`
	Stored  int64  `json:"storedUnix"`
}

// storeIndex is the snapshot file's shape.
type storeIndex struct {
	Version int                    `json:"version"`
	Entries map[string]*storeEntry `json:"entries"`
}

// journalRecord is a journal record's payload; a nil Entry drops Key.
type journalRecord struct {
	Key   string      `json:"key"`
	Entry *storeEntry `json:"entry,omitempty"`
}

const (
	snapshotFile = "index.json"
	journalFile  = "index.journal"
	// maxKeyBytes bounds a stored cache key (keys are sha256 addresses, 71
	// bytes), so that every record fits in maxRecordBytes even with each
	// key byte JSON-escaped to six.
	maxKeyBytes = 512
	// maxRecordBytes bounds a journal record's payload; a longer length
	// field is corrupt, and replay stops there before allocating anything.
	maxRecordBytes = 4 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// openDiskStore loads (or initializes) a store rooted at dir, applies both
// bounds and starts its writer. Entries whose blob is missing or mis-sized
// are dropped; blobs and temp files nothing references are swept.
// maxBytes <= 0 means 1 GiB; maxAge <= 0 means no age bound.
func openDiskStore(dir string, maxBytes int64, maxAge time.Duration) (*diskStore, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 30
	}
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating store dir: %w", err)
	}
	st := &diskStore{
		dir:      dir,
		maxBytes: maxBytes,
		maxAge:   maxAge,
		now:      time.Now,
		index:    make(map[string]*storeEntry),
		refs:     make(map[string]int),
		wake:     make(chan struct{}, 1),
		stopped:  make(chan struct{}),
	}
	if err := st.load(); err != nil {
		return nil, err
	}
	st.gc()
	if maxAge > 0 {
		// Half the age bound lets a row outlive it by at most half again.
		// Stored times have one-second resolution, so a faster tick finds
		// nothing new, and a minute caps the wait under a long bound.
		st.ticker = time.NewTicker(min(max(maxAge/2, time.Second), time.Minute))
	}
	go st.run()
	return st, nil
}

// load rebuilds the index from the snapshot and the journal, validates it
// against the blobs, sweeps anything unreferenced (crash leftovers, rows
// dropped here) and compacts, so the next open starts clean.
func (st *diskStore) load() error {
	data, err := os.ReadFile(filepath.Join(st.dir, snapshotFile))
	if err == nil {
		var snap storeIndex
		// A corrupt snapshot is recoverable — the blobs are
		// self-describing, but without key->address rows we can't serve
		// them, so start from the journal alone rather than fail the
		// server.
		if json.Unmarshal(data, &snap) == nil && snap.Entries != nil {
			st.index = snap.Entries
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("serve: reading store index: %w", err)
	}
	st.journal, err = os.OpenFile(filepath.Join(st.dir, journalFile), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("serve: opening store journal: %w", err)
	}
	replay(st.journal, st.index)
	for key, e := range st.index {
		if e == nil || len(key) > maxKeyBytes || !validAddress(e.Address) {
			delete(st.index, key)
			continue
		}
		if fi, err := os.Stat(st.blobPath(e.Address)); err != nil || fi.Size() != e.Size {
			delete(st.index, key) // blob gone or torn; drop the row
			continue
		}
		if st.refs[e.Address] == 0 {
			st.size += e.Size
		}
		st.refs[e.Address]++
	}
	// Sweep unreferenced files so dropped rows and crashed writes don't
	// leak disk forever.
	entries, err := os.ReadDir(filepath.Join(st.dir, "blobs"))
	if err != nil {
		st.journal.Close()
		return fmt.Errorf("serve: scanning blobs: %w", err)
	}
	for _, de := range entries {
		addr := addressOfBlobName(de.Name())
		if addr == "" || st.refs[addr] == 0 {
			os.Remove(filepath.Join(st.dir, "blobs", de.Name()))
		}
	}
	if rootEntries, err := os.ReadDir(st.dir); err == nil {
		for _, de := range rootEntries {
			if strings.HasPrefix(de.Name(), ".tmp-") {
				os.Remove(filepath.Join(st.dir, de.Name()))
			}
		}
	}
	if err := st.compact(); err != nil {
		st.journal.Close()
		return fmt.Errorf("serve: compacting store index: %w", err)
	}
	st.reorder()
	return nil
}

// replay applies the journal's records to index in order. It stops at the
// first record that is short, over maxRecordBytes, fails its checksum or
// does not decode — an append cut short by a crash leaves one at the tail —
// and ignores everything after it.
func replay(r io.Reader, index map[string]*storeEntry) {
	br := bufio.NewReader(r)
	var head [8]byte
	buf := make([]byte, maxRecordBytes)
	for {
		if _, err := io.ReadFull(br, head[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(head[:4])
		if n > maxRecordBytes {
			return
		}
		payload := buf[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(head[4:]) {
			return
		}
		var rec journalRecord
		if json.Unmarshal(payload, &rec) != nil {
			return
		}
		if rec.Entry == nil {
			delete(index, rec.Key)
		} else {
			index[rec.Key] = rec.Entry
		}
	}
}

// appendRecord appends key's record to buf: a put of e, or a drop when e
// is nil.
func appendRecord(buf []byte, key string, e *storeEntry) []byte {
	payload, _ := json.Marshal(journalRecord{Key: key, Entry: e}) // strings and ints always encode
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// run is the writer goroutine: it serves the inbox in order and the GC
// ticker until Close, then drains the inbox and closes the journal.
func (st *diskStore) run() {
	defer close(st.stopped)
	for {
		var tick <-chan time.Time
		if st.ticker != nil {
			tick = st.ticker.C
		}
		select {
		case <-st.wake:
		case <-tick:
			st.gc()
			continue
		}
		st.mu.Lock()
		ops, closing := st.pending, st.closing
		st.pending = nil
		st.mu.Unlock()
		for _, op := range ops {
			if op.fn != nil {
				op.fn()
			} else {
				st.commit(op)
			}
		}
		if closing {
			if st.ticker != nil {
				st.ticker.Stop()
			}
			st.journal.Close()
			return
		}
	}
}

// send queues op for the writer, reporting false once Close has begun.
func (st *diskStore) send(op storeOp) bool {
	st.mu.Lock()
	if st.closing {
		st.mu.Unlock()
		return false
	}
	st.pending = append(st.pending, op)
	st.mu.Unlock()
	select {
	case st.wake <- struct{}{}:
	default:
	}
	return true
}

// call runs fn on the writer goroutine and waits for it; after Close it
// does nothing.
func (st *diskStore) call(fn func()) {
	done := make(chan struct{})
	if st.send(storeOp{fn: func() { fn(); close(done) }}) {
		<-done
	}
}

// commit makes a put durable and visible: its blob first, then its
// record's append, then its index row, and only then its then.
func (st *diskStore) commit(p storeOp) {
	if e := st.persist(p); e != nil {
		st.mu.Lock()
		dead := st.setLocked(p.key, e, nil)
		st.mu.Unlock()
		_, dead = st.evict(math.MinInt64, dead)
		st.removeBlobs(dead)
	}
	p.then()
	if st.records > len(st.index) {
		st.compact()
	}
}

// persist writes p's blob unless the store holds it already and appends
// p's record, returning the row to publish; nil means there is nothing to
// publish: the key already holds this address, or the put was invalid or
// failed. Best effort: the in-memory cache still has a failed put's body,
// and a blob left unreferenced by a failed append is swept at the next
// open.
func (st *diskStore) persist(p storeOp) *storeEntry {
	if !validAddress(p.address) || len(p.key) > maxKeyBytes {
		return nil
	}
	if e, ok := st.index[p.key]; ok && e.Address == p.address {
		return nil // already stored
	}
	if st.refs[p.address] == 0 && writeFileAtomic(st.blobPath(p.address), filepath.Join(st.dir, "blobs"), p.body) != nil {
		return nil
	}
	e := &storeEntry{Address: p.address, Size: int64(len(p.body)), Stored: st.now().Unix()}
	if st.appendRecords(appendRecord(nil, p.key, e), 1) != nil {
		return nil
	}
	return e
}

// appendRecords writes n encoded records with one write and one fsync. A
// failed append may have left part of itself behind, and replay would stop
// there, so the next append compacts first.
func (st *diskStore) appendRecords(buf []byte, n int) error {
	if st.torn {
		if err := st.compact(); err != nil {
			return err
		}
	}
	_, err := st.journal.Write(buf)
	if err == nil {
		err = st.journal.Sync()
	}
	if err != nil {
		st.torn = true
		return err
	}
	st.records += n
	return nil
}

// compact writes the index as a fresh snapshot and only then empties the
// journal: a crash between the two replays records whose effect the
// snapshot already holds, which gives the same index. The directory is
// fsynced in between, since a file system may persist the truncation
// before a rename it has not been asked to sync.
func (st *diskStore) compact() error {
	data, err := json.Marshal(storeIndex{Version: 1, Entries: st.index})
	if err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(st.dir, snapshotFile), st.dir, data); err != nil {
		return err
	}
	if err := syncDir(st.dir); err != nil {
		return err
	}
	if err := st.journal.Truncate(0); err != nil {
		return err
	}
	if err := st.journal.Sync(); err != nil {
		return err
	}
	st.records, st.torn = 0, false
	return nil
}

// setLocked points key's row at e, or drops it when e is nil, and returns
// dead extended by the address whose last reference went, if any.
func (st *diskStore) setLocked(key string, e *storeEntry, dead []string) []string {
	if old, ok := st.index[key]; ok {
		delete(st.index, key)
		st.refs[old.Address]--
		if st.refs[old.Address] <= 0 {
			delete(st.refs, old.Address)
			st.size -= old.Size
			dead = append(dead, old.Address)
		}
	}
	if e != nil {
		st.index[key] = e
		if st.refs[e.Address] == 0 {
			st.size += e.Size
		}
		st.refs[e.Address]++
		heap.Push(&st.order, ageRow{key, e})
	}
	return dead
}

// removeBlobs deletes the blobs of dead addresses that no row took back.
func (st *diskStore) removeBlobs(dead []string) {
	for _, addr := range dead {
		if st.refs[addr] == 0 {
			os.Remove(st.blobPath(addr))
		}
	}
}

// evict drops rows oldest-stored first while they were stored before
// cutoff or the blobs are over budget (the size bound keeps the newest
// row), journals the drops, and returns how many went, with dead extended
// by the addresses they left unreferenced.
func (st *diskStore) evict(cutoff int64, dead []string) (int, []string) {
	if len(st.order) > 2*len(st.index)+64 {
		st.reorder() // shed the rows replaced or dropped since they were pushed
	}
	if cutoff == math.MinInt64 && st.size <= st.maxBytes {
		return 0, dead
	}
	var buf []byte
	n := 0
	st.mu.Lock()
	for len(st.order) > 0 {
		top := st.order[0]
		if st.index[top.key] != top.e {
			heap.Pop(&st.order) // replaced or dropped since it was pushed
			continue
		}
		if top.e.Stored >= cutoff && (st.size <= st.maxBytes || len(st.index) <= 1) {
			break
		}
		heap.Pop(&st.order)
		dead = st.setLocked(top.key, nil, dead)
		buf = appendRecord(buf, top.key, nil)
		n++
	}
	st.removed += uint64(n)
	st.mu.Unlock()
	if n > 0 {
		st.appendRecords(buf, n)
	}
	return n, dead
}

// gc applies the age bound then the size bound, compacting if anything
// went. It returns how many entries were removed.
func (st *diskStore) gc() int {
	cutoff := int64(math.MinInt64)
	if st.maxAge > 0 {
		cutoff = st.now().Add(-st.maxAge).Unix()
	}
	n, dead := st.evict(cutoff, nil)
	if n > 0 {
		st.compact()
	}
	st.removeBlobs(dead)
	return n
}

// ageOrder is a min-heap of rows by (stored time, key), the eviction
// order: deterministic regardless of map iteration. A row replaced or
// dropped since it was pushed stays until evict pops it or reorder sheds it.
type ageOrder []ageRow

type ageRow struct {
	key string
	e   *storeEntry
}

func (h ageOrder) Len() int { return len(h) }
func (h ageOrder) Less(i, j int) bool {
	if h[i].e.Stored != h[j].e.Stored {
		return h[i].e.Stored < h[j].e.Stored
	}
	return h[i].key < h[j].key
}
func (h ageOrder) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *ageOrder) Push(x any)   { *h = append(*h, x.(ageRow)) }
func (h *ageOrder) Pop() any {
	old := *h
	r := old[len(old)-1]
	old[len(old)-1] = ageRow{}
	*h = old[:len(old)-1]
	return r
}

// reorder rebuilds the eviction heap from the index's rows alone.
func (st *diskStore) reorder() {
	st.order = make(ageOrder, 0, len(st.index))
	for key, e := range st.index {
		st.order = append(st.order, ageRow{key, e})
	}
	heap.Init(&st.order)
}

// Get returns the body stored under key, re-hashing it against its address
// — never trust disk. A corrupt or missing blob drops the entry (waiting
// for the writer to journal the drop and remove the file) and reports a
// miss, so the caller recomputes instead of serving garbage.
func (st *diskStore) Get(key string) (body []byte, address string, ok bool) {
	st.mu.Lock()
	e, found := st.index[key]
	if !found {
		st.misses++
		st.mu.Unlock()
		return nil, "", false
	}
	addr := e.Address
	st.mu.Unlock()

	body, err := os.ReadFile(st.blobPath(addr))
	if err != nil || metrics.AddressBytes(body) != addr {
		st.call(func() { st.dropCorrupt(key, addr) })
		st.mu.Lock()
		st.misses++
		st.mu.Unlock()
		return nil, "", false
	}
	st.mu.Lock()
	st.hits++
	st.mu.Unlock()
	return body, addr, true
}

// dropCorrupt drops key's row if it still points at address, whose blob
// failed its re-hash (a later put may have replaced the row since).
func (st *diskStore) dropCorrupt(key, address string) {
	if e, ok := st.index[key]; !ok || e.Address != address {
		return
	}
	st.mu.Lock()
	dead := st.setLocked(key, nil, nil)
	st.mu.Unlock()
	st.appendRecords(appendRecord(nil, key, nil), 1)
	st.compact()
	st.removeBlobs(dead)
}

// PutAsync queues body for storage under key and returns at once; then
// runs on the writer goroutine once the record is durable or the put has
// failed (or at once, after Close). Best effort: an I/O failure loses
// persistence, not correctness — the in-memory cache still has the result.
func (st *diskStore) PutAsync(key string, body []byte, address string, then func()) {
	if !st.send(storeOp{key: key, address: address, body: body, then: then}) {
		then()
	}
}

// Put persists body under key and returns once its record is durable or
// the put has failed.
func (st *diskStore) Put(key string, body []byte, address string) {
	done := make(chan struct{})
	st.PutAsync(key, body, address, func() { close(done) })
	<-done
}

// Close lets the writer finish every queued put and request, then stops
// it. Idempotent; everything a put reported done is already durable.
func (st *diskStore) Close() {
	st.mu.Lock()
	st.closing = true
	st.mu.Unlock()
	select {
	case st.wake <- struct{}{}:
	default:
	}
	<-st.stopped
}

// diskStats is the /metrics (and test) view of the store.
type diskStats struct {
	Entries  int
	Bytes    int64
	MaxBytes int64
	Hits     uint64
	Misses   uint64
	Removed  uint64
}

func (st *diskStore) Stats() diskStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return diskStats{
		Entries:  len(st.index),
		Bytes:    st.size,
		MaxBytes: st.maxBytes,
		Hits:     st.hits,
		Misses:   st.misses,
		Removed:  st.removed,
	}
}

// blobPath maps an address "sha256:<hex>" to its file. validAddress gates
// every address before it reaches here, so the name is always a safe flat
// filename.
func (st *diskStore) blobPath(address string) string {
	return filepath.Join(st.dir, "blobs", "sha256-"+strings.TrimPrefix(address, "sha256:"))
}

// addressOfBlobName inverts blobPath's naming, "" for foreign files.
func addressOfBlobName(name string) string {
	hex, ok := strings.CutPrefix(name, "sha256-")
	if !ok {
		return ""
	}
	addr := "sha256:" + hex
	if !validAddress(addr) {
		return ""
	}
	return addr
}

// validAddress accepts exactly the artifact address form sha256:<64 hex>.
// Anything else — including a corrupt index trying to smuggle a path — is
// rejected before it can touch the filesystem.
func validAddress(address string) bool {
	hex, ok := strings.CutPrefix(address, "sha256:")
	if !ok || len(hex) != 64 {
		return false
	}
	for i := 0; i < len(hex); i++ {
		c := hex[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// syncDir fsyncs dir, making the renames into it durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFileAtomic writes data to path via a temp file in tmpDir (same
// filesystem) + fsync + rename, so a crash never leaves a torn file.
func writeFileAtomic(path, tmpDir string, data []byte) error {
	f, err := os.CreateTemp(tmpDir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
