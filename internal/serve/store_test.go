package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lotuseater/internal/metrics"
)

// TestStoreSurvivesRestart is the acceptance pin for disk persistence: a
// server computes a result, dies (Close — the hard-kill equivalent for
// everything in memory), and a fresh server over the same store directory
// answers GET /results/{key} from disk with the identical ETag and
// byte-identical body, without executing a single simulation.
func TestStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Version: "v-test", StoreDir: dir}

	s1, ts1 := newTestServer(t, cfg)
	resp := submit(t, ts1.URL, fmt.Sprintf(`{"spec": %s, "seed": 7}`, tinySpec))
	waitDone(t, ts1.URL, resp.Key)
	code, hdr1, body1 := getBody(t, ts1.URL+"/results/"+resp.Key)
	if code != http.StatusOK {
		t.Fatalf("first server result: status %d", code)
	}
	etag1 := hdr1.Get("ETag")
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Fresh process, same directory: the in-memory cache starts empty, so
	// this answer can only come from disk.
	s2, ts2 := newTestServer(t, cfg)
	code, hdr2, body2 := getBody(t, ts2.URL+"/results/"+resp.Key)
	if code != http.StatusOK {
		t.Fatalf("restarted server result: status %d", code)
	}
	if hdr2.Get("ETag") != etag1 {
		t.Fatalf("ETag changed across restart: %q vs %q", hdr2.Get("ETag"), etag1)
	}
	if string(body2) != string(body1) {
		t.Fatalf("body changed across restart (%d vs %d bytes)", len(body2), len(body1))
	}
	if s2.Runs() != 0 {
		t.Fatalf("restarted server recomputed (%d runs) instead of reading disk", s2.Runs())
	}

	// A re-submit is an immediate cache hit too — no queue, no run.
	re := submit(t, ts2.URL, fmt.Sprintf(`{"spec": %s, "seed": 7}`, tinySpec))
	if !re.Cached || re.Status != StateDone {
		t.Fatalf("resubmit after restart: %+v, want cached done", re)
	}
	if s2.Runs() != 0 {
		t.Fatalf("resubmit ran %d simulations", s2.Runs())
	}
}

// TestStoreNeverTrustsDisk: a blob corrupted (or truncated) while the
// server was away fails its re-hash on read and reports a miss — the entry
// drops and the server recomputes rather than serving garbage.
func TestStoreNeverTrustsDisk(t *testing.T) {
	dir := t.TempDir()
	st, err := openDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"canonical":"artifact"}`)
	addr := metrics.AddressBytes(body)
	st.Put("key-1", body, addr)

	// Corrupt the blob in place, keeping its size (so index validation at
	// the next open cannot catch it — only the content re-hash can).
	blob := st.blobPath(addr)
	raw, err := os.ReadFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xff
	if err := os.WriteFile(blob, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, ok := st.Get("key-1"); ok {
		t.Fatal("corrupt blob served as a hit")
	}
	if _, err := os.Stat(blob); !os.IsNotExist(err) {
		t.Fatal("corrupt blob not removed after failed verification")
	}
	if stats := st.Stats(); stats.Entries != 0 || stats.Misses != 1 {
		t.Fatalf("stats after corruption: %+v", stats)
	}
	st.Close()
}

// gcOnce runs a GC pass on the writer and returns how many entries it
// removed.
func (st *diskStore) gcOnce() int {
	removed := 0
	st.call(func() { removed = st.gc() })
	return removed
}

// TestStoreGC: the age and size bounds evict deterministically — oldest
// stored first, newest always survives — under an injected clock.
func TestStoreGC(t *testing.T) {
	mkBody := func(tag string, n int) []byte {
		b := make([]byte, n)
		copy(b, tag)
		return b
	}
	put := func(st *diskStore, key, tag string, n int) {
		body := mkBody(tag, n)
		st.Put(key, body, metrics.AddressBytes(body))
	}

	t.Run("age bound", func(t *testing.T) {
		st, err := openDiskStore(t.TempDir(), 0, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		now := time.Unix(1_000_000, 0)
		st.now = func() time.Time { return now }
		put(st, "old", "a", 10)
		now = now.Add(2 * time.Hour)
		put(st, "fresh", "b", 10)
		if removed := st.gcOnce(); removed != 1 {
			t.Fatalf("age GC removed %d entries, want 1", removed)
		}
		if _, _, ok := st.Get("old"); ok {
			t.Fatal("expired entry survived age GC")
		}
		if _, _, ok := st.Get("fresh"); !ok {
			t.Fatal("fresh entry evicted by age GC")
		}
	})

	t.Run("size bound evicts oldest first", func(t *testing.T) {
		st, err := openDiskStore(t.TempDir(), 100, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		now := time.Unix(2_000_000, 0)
		st.now = func() time.Time { return now }
		for i, key := range []string{"k0", "k1", "k2"} {
			put(st, key, fmt.Sprintf("b%d", i), 40)
			now = now.Add(time.Second)
		}
		// 120 bytes against a 100-byte budget: k0 (oldest) goes, inline on Put.
		if _, _, ok := st.Get("k0"); ok {
			t.Fatal("oldest entry survived the size bound")
		}
		for _, key := range []string{"k1", "k2"} {
			if _, _, ok := st.Get(key); !ok {
				t.Fatalf("entry %s evicted out of order", key)
			}
		}
	})

	t.Run("newest survives an over-budget artifact", func(t *testing.T) {
		st, err := openDiskStore(t.TempDir(), 50, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		now := time.Unix(3_000_000, 0)
		st.now = func() time.Time { return now }
		put(st, "small", "a", 10)
		now = now.Add(time.Second)
		put(st, "huge", "b", 500)
		if _, _, ok := st.Get("small"); ok {
			t.Fatal("small entry survived despite the huge newest entry")
		}
		if _, _, ok := st.Get("huge"); !ok {
			t.Fatal("newest entry did not survive its own Put")
		}
	})
}

// TestStoreOpenAppliesBounds: a store reopened under tighter bounds meets
// them at open, before any put or GC tick: first a smaller byte budget
// evicts the oldest rows, then an age bound every row stored before it,
// each row's blob going with it.
func TestStoreOpenAppliesBounds(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	now := time.Now().Add(-3 * time.Hour)
	st.now = func() time.Time { return now }
	var addrs []string
	for i := range 3 {
		body := make([]byte, 40)
		copy(body, fmt.Sprintf("b%d", i))
		addrs = append(addrs, metrics.AddressBytes(body))
		st.Put(fmt.Sprintf("k%d", i), body, addrs[i])
		now = now.Add(time.Hour)
	}
	st.Close()

	reopen := func(maxBytes int64, maxAge time.Duration, want ...string) {
		t.Helper()
		st, err := openDiskStore(dir, maxBytes, maxAge)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		got := indexOf(st)
		if len(got) != len(want) {
			t.Fatalf("bounds (%d, %v): rows %v, want %v", maxBytes, maxAge, got, want)
		}
		for _, key := range want {
			if _, ok := got[key]; !ok {
				t.Fatalf("bounds (%d, %v): row %s evicted; rows %v", maxBytes, maxAge, key, got)
			}
		}
		for i, addr := range addrs {
			_, err := os.Stat(st.blobPath(addr))
			if _, kept := got[fmt.Sprintf("k%d", i)]; kept != (err == nil) {
				t.Fatalf("bounds (%d, %v): row k%d kept %v but its blob: %v", maxBytes, maxAge, i, kept, err)
			}
		}
	}
	reopen(100, 0, "k1", "k2")
	reopen(0, 90*time.Minute, "k2")
}

// TestStoreEvictionTracksReplacements: a key put again under a new body
// is as old as its latest put, and the rows replaced on the way neither
// evict it early nor pile up in the eviction order.
func TestStoreEvictionTracksReplacements(t *testing.T) {
	st, err := openDiskStore(t.TempDir(), 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	now := time.Unix(4_000_000, 0)
	st.now = func() time.Time { return now }
	put := func(key string, i int) {
		body := []byte(fmt.Sprintf("%040d", i))
		st.Put(key, body, metrics.AddressBytes(body))
		now = now.Add(time.Second)
	}
	evicted := func(gone string, kept ...string) {
		t.Helper()
		if _, _, ok := st.Get(gone); ok {
			t.Fatalf("the oldest row %s survived the size bound", gone)
		}
		for _, key := range kept {
			if _, _, ok := st.Get(key); !ok {
				t.Fatalf("row %s evicted in place of %s", key, gone)
			}
		}
	}
	put("k0", 0)
	put("k1", 1)
	put("k0", 2)
	put("k2", 3) // 120 bytes against a 100-byte budget
	evicted("k1", "k0", "k2")

	for i := range 200 {
		put("k2", 4+i) // under budget: nothing evicts, 200 rows replaced
	}
	var held, rows int
	st.call(func() { held, rows = len(st.order), len(st.index) })
	if held > 2*rows+64 {
		t.Fatalf("eviction order holds %d rows for an index of %d", held, rows)
	}
	put("k3", 1000)
	evicted("k0", "k2", "k3")
}

// TestStoreIndexSurvivesReload: a reopened store sees exactly the surviving
// entries, shares blobs between keys with identical bodies, and sweeps
// leftovers that nothing references.
func TestStoreIndexSurvivesReload(t *testing.T) {
	dir := t.TempDir()
	st, err := openDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	shared := []byte("shared-body-bytes")
	addr := metrics.AddressBytes(shared)
	st.Put("k1", shared, addr)
	st.Put("k2", shared, addr) // same bytes: one blob, two index rows
	if stats := st.Stats(); stats.Entries != 2 || stats.Bytes != int64(len(shared)) {
		t.Fatalf("dedup accounting: %+v", stats)
	}
	st.Close()

	// Drop a stray file and a fake temp file; reload must sweep both.
	if err := os.WriteFile(filepath.Join(dir, "blobs", "junk"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".tmp-123"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := openDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, key := range []string{"k1", "k2"} {
		body, gotAddr, ok := st2.Get(key)
		if !ok || string(body) != string(shared) || gotAddr != addr {
			t.Fatalf("entry %s after reload: ok=%v addr=%q", key, ok, gotAddr)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "blobs", "junk")); !os.IsNotExist(err) {
		t.Fatal("unreferenced blob not swept on reload")
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-123")); !os.IsNotExist(err) {
		t.Fatal("stale temp file not swept on reload")
	}
}

// TestStoreGCLoopLifecycle: the GC loop starts with the server, actually
// collects on its ticks (the shortest, one second, under a millisecond age
// bound), and drains on shutdown — no orphaned tickers or goroutines after
// Close.
func TestStoreGCLoopLifecycle(t *testing.T) {
	warmPool(t)
	base := runtime.NumGoroutine()

	dir := t.TempDir()
	s := mustNew(t, Config{
		Version:     "v-test",
		StoreDir:    dir,
		StoreMaxAge: time.Millisecond,
	})
	ts := httptest.NewServer(s)

	resp := submit(t, ts.URL, fmt.Sprintf(`{"spec": %s, "seed": 13}`, tinySpec))
	waitDone(t, ts.URL, resp.Key)

	// With a millisecond max age, the running GC loop must expire the entry
	// on one of its ticks — proof the loop is alive without poking internals.
	deadline := time.Now().Add(5 * time.Second)
	for s.disk.Stats().Entries > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("GC loop never expired the entry: %+v", s.disk.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	settleGoroutines(t, base)

	// Close again: idempotent, no panic, no hang.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// indexOf copies st's index rows.
func indexOf(st *diskStore) map[string]storeEntry {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]storeEntry, len(st.index))
	for k, e := range st.index {
		out[k] = *e
	}
	return out
}

// mustOpen opens a store over dir with no bounds, closing it after the test.
func mustOpen(t *testing.T, dir string) *diskStore {
	t.Helper()
	st, err := openDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

// readFile returns path's bytes, failing the test on error.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// copyStore copies a closed store's snapshot and blobs from src to a fresh
// directory, with journal as its journal.
func copyStore(t *testing.T, src string, journal []byte) string {
	t.Helper()
	dst := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dst, "blobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	blobs, err := os.ReadDir(filepath.Join(src, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range blobs {
		data := readFile(t, filepath.Join(src, "blobs", de.Name()))
		if err := os.WriteFile(filepath.Join(dst, "blobs", de.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dst, snapshotFile), readFile(t, filepath.Join(src, snapshotFile)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, journalFile), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestStoreJournalTornTail cuts the journal at every byte offset of its
// last record, as a crash mid-append would leave it: every reopen holds
// exactly the records before the cut, and the cut record's blob is swept.
func TestStoreJournalTornTail(t *testing.T) {
	src := t.TempDir()
	st, err := openDiskStore(src, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		st.Put(storeArtifact(i))
	}
	before := indexOf(st)
	fi, err := os.Stat(filepath.Join(src, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	lastStart := int(fi.Size())
	key, body, addr := storeArtifact(2)
	st.Put(key, body, addr)
	all := indexOf(st)
	st.Close()
	journal := readFile(t, filepath.Join(src, journalFile))
	if len(before) != 2 || len(all) != 3 || lastStart == 0 || lastStart >= len(journal) {
		t.Fatalf("setup: %d then %d rows, last record at %d of %d bytes", len(before), len(all), lastStart, len(journal))
	}

	for cut := lastStart; cut <= len(journal); cut++ {
		dir := copyStore(t, src, journal[:cut])
		st := mustOpen(t, dir)
		want := before
		if cut == len(journal) {
			want = all
		}
		if got := indexOf(st); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d of %d: index %v, want %v", cut, len(journal), got, want)
		}
		_, err := os.Stat(st.blobPath(addr))
		if swept := os.IsNotExist(err); swept != (cut < len(journal)) {
			t.Fatalf("cut at %d of %d: the last put's blob swept=%v", cut, len(journal), swept)
		}
		if data := readFile(t, filepath.Join(dir, journalFile)); len(data) != 0 {
			t.Fatalf("cut at %d: journal holds %d bytes after open, want it compacted away", cut, len(data))
		}
		st.Close()
	}

	// A record that fails its checksum ends the replay: flipping the last
	// digit of the first record's storedUnix leaves valid JSON, yet no
	// journal row survives.
	flipped := append([]byte(nil), journal...)
	i := strings.Index(string(flipped), `"storedUnix":`)
	i += strings.IndexByte(string(flipped[i:]), '}') - 1
	flipped[i] ^= 1
	if got := indexOf(mustOpen(t, copyStore(t, src, flipped))); len(got) != 0 {
		t.Fatalf("a journal whose first record fails its checksum opened to %v", got)
	}
}

// TestStoreOpenChecksRowsAgainstBlobs: at open a blob no record names is
// swept, and a record whose blob is missing or short is dropped (and the
// short blob swept with it).
func TestStoreOpenChecksRowsAgainstBlobs(t *testing.T) {
	dir := t.TempDir()
	st, err := openDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var addrs [3]string
	for i := range addrs {
		var key string
		var body []byte
		key, body, addrs[i] = storeArtifact(i)
		st.Put(key, body, addrs[i])
	}
	st.Close()
	if err := os.Remove(st.blobPath(addrs[1])); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(st.blobPath(addrs[2]), 100); err != nil {
		t.Fatal(err)
	}
	_, stray, strayAddr := storeArtifact(3)
	if err := os.WriteFile(st.blobPath(strayAddr), stray, 0o644); err != nil {
		t.Fatal(err)
	}

	st = mustOpen(t, dir)
	key0, body0, _ := storeArtifact(0)
	if got := indexOf(st); len(got) != 1 || got[key0].Address != addrs[0] {
		t.Fatalf("index after open: %v, want only %s", got, key0)
	}
	if stats := st.Stats(); stats.Bytes != int64(len(body0)) {
		t.Fatalf("stats after open: %+v", stats)
	}
	for _, addr := range []string{addrs[2], strayAddr} {
		if _, err := os.Stat(st.blobPath(addr)); !os.IsNotExist(err) {
			t.Fatalf("blob %s not swept", addr)
		}
	}
}

// TestStoreCompactionCrash restores the journal that compaction truncated
// beside the snapshot it wrote first, as a crash between the two steps
// leaves them: reopening gives the same index.
func TestStoreCompactionCrash(t *testing.T) {
	clock := time.Unix(5_000_000, 0)
	open := func(t *testing.T, dir string, maxBytes int64, maxAge time.Duration) *diskStore {
		t.Helper()
		st, err := openDiskStore(dir, maxBytes, maxAge)
		if err != nil {
			t.Fatal(err)
		}
		st.now = func() time.Time { return clock }
		return st
	}
	put := func(st *diskStore, i int) {
		clock = clock.Add(time.Second)
		st.Put(storeArtifact(i))
	}
	// reopenWith writes journal beside dir's snapshot, reopens, and checks
	// the index and the snapshot's bytes are the ones the snapshot holds.
	reopenWith := func(t *testing.T, dir string, journal []byte) {
		t.Helper()
		st := open(t, dir, 0, 0)
		want := indexOf(st)
		st.Close()
		snapshot := readFile(t, filepath.Join(dir, snapshotFile))
		if err := os.WriteFile(filepath.Join(dir, journalFile), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		st = open(t, dir, 0, 0)
		got := indexOf(st)
		st.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("index after replaying the truncated journal:\n%v\nwant\n%v", got, want)
		}
		if again := readFile(t, filepath.Join(dir, snapshotFile)); string(again) != string(snapshot) {
			t.Fatalf("snapshot changed:\n%s\nwant\n%s", again, snapshot)
		}
	}

	t.Run("at open", func(t *testing.T) {
		dir := t.TempDir()
		budget := int64(10*4<<10 + 100)
		st := open(t, dir, budget, 0)
		for i := range 10 {
			put(st, i)
		}
		st.Close()
		// The next session's puts go to the journal: a new row past the
		// budget (so the oldest row's drop), then a replaced row.
		st = open(t, dir, budget, 0)
		put(st, 10)
		key5, _, _ := storeArtifact(5)
		_, body, addr := storeArtifact(11)
		clock = clock.Add(time.Second)
		st.Put(key5, body, addr)
		if stats := st.Stats(); stats.Entries != 10 || stats.Removed != 1 {
			t.Fatalf("stats: %+v, want 10 entries after one eviction", stats)
		}
		st.Close()
		reopenWith(t, dir, readFile(t, filepath.Join(dir, journalFile)))
	})

	// A GC pass journals its drops and then compacts; run its first step
	// alone, so the journal is the one its compaction would truncate.
	t.Run("after GC", func(t *testing.T) {
		dir := t.TempDir()
		st := open(t, dir, 0, time.Hour)
		for i := range 4 {
			put(st, i)
		}
		want := readFile(t, filepath.Join(dir, journalFile))
		for i := range 2 {
			key, _, _ := storeArtifact(i)
			want = appendRecord(want, key, nil)
		}
		clock = clock.Add(time.Hour - time.Second) // the first two rows are over an hour old
		removed := 0
		st.call(func() { removed, _ = st.evict(clock.Add(-time.Hour).Unix(), nil) })
		journal := readFile(t, filepath.Join(dir, journalFile))
		if removed != 2 || string(journal) != string(want) {
			t.Fatalf("GC removed %d rows and left a %d-byte journal, want 2 rows and their drops (%d bytes)", removed, len(journal), len(want))
		}
		st.Close()
		reopenWith(t, dir, journal)
	})
}

// TestStoreFailedAppendPublishesNothing: a put whose record cannot be
// written still reports back (best effort), but its row is never published,
// and a reopen neither serves it nor keeps its blob.
func TestStoreFailedAppendPublishesNothing(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	st.Put(storeArtifact(0))
	st.call(func() { st.journal.Close() }) // every later append fails
	key, body, addr := storeArtifact(1)
	st.Put(key, body, addr)
	if _, _, ok := st.Get(key); ok {
		t.Fatal("a put whose record failed to append is served")
	}
	if stats := st.Stats(); stats.Entries != 1 {
		t.Fatalf("stats after the failed put: %+v, want 1 entry", stats)
	}
	st.Close()
	if got := indexOf(mustOpen(t, dir)); len(got) != 1 {
		t.Fatalf("reopened index: %v, want the first put only", got)
	}
	if _, err := os.Stat(st.blobPath(addr)); !os.IsNotExist(err) {
		t.Fatal("the failed put's blob was not swept at reopen")
	}
}

// TestStoreCompactionKeepsJournalUntilSnapshot: a compaction whose
// snapshot cannot be written leaves the journal whole, so a reopen still
// replays every record.
func TestStoreCompactionKeepsJournalUntilSnapshot(t *testing.T) {
	dir := t.TempDir()
	st := mustOpen(t, dir)
	// A non-empty directory where the snapshot goes fails its rename.
	snapshot := filepath.Join(dir, snapshotFile)
	if err := os.Remove(snapshot); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(snapshot, "blocked"), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		st.Put(storeArtifact(i))
	}
	// Replacing a row makes the journal outgrow the index: compaction.
	key0, _, _ := storeArtifact(0)
	_, body, addr := storeArtifact(2)
	st.Put(key0, body, addr)
	want := indexOf(st)
	st.Close()
	if err := os.RemoveAll(snapshot); err != nil {
		t.Fatal(err)
	}
	if got := indexOf(mustOpen(t, dir)); !reflect.DeepEqual(got, want) {
		t.Fatalf("index after a failed compaction: %v, want %v", got, want)
	}
}

// TestStoreConcurrentPutsAndGets runs puts (synchronous and queued, some
// sharing a body) and Gets from several goroutines at once; run it with
// -race -count=10. Every Get that hits returns the bytes put under its
// key, and every put is in the index once the puts return.
func TestStoreConcurrentPutsAndGets(t *testing.T) {
	const writers, perWriter, readers = 4, 20, 4
	dir := t.TempDir()
	st := mustOpen(t, dir)
	_, shared, sharedAddr := storeArtifact(-1)
	var puts, gets sync.WaitGroup
	for w := range writers {
		puts.Add(1)
		go func() {
			defer puts.Done()
			var queued sync.WaitGroup
			for i := range perWriter {
				key, body, addr := storeArtifact(w*perWriter + i)
				if i%2 == 0 {
					st.Put(key, body, addr)
					continue
				}
				queued.Add(1)
				st.PutAsync(key, body, addr, queued.Done)
			}
			st.Put(fmt.Sprintf("shared-%d", w), shared, sharedAddr)
			queued.Wait()
		}()
	}
	stop := make(chan struct{})
	for r := range readers {
		gets.Add(1)
		go func() {
			defer gets.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key, body, addr := storeArtifact(i % (writers * perWriter))
				if got, gotAddr, ok := st.Get(key); ok && (gotAddr != addr || string(got) != string(body)) {
					t.Errorf("Get(%s) = %s, want %s", key, gotAddr, addr)
				}
			}
		}()
	}
	puts.Wait()
	close(stop)
	gets.Wait()
	want := writers*perWriter + writers
	if stats := st.Stats(); stats.Entries != want || stats.Bytes != int64(writers*perWriter+1)*4<<10 {
		t.Fatalf("stats after the puts: %+v, want %d entries", stats, want)
	}
	before := indexOf(st)
	st.Close()
	if got := indexOf(mustOpen(t, dir)); !reflect.DeepEqual(got, before) {
		t.Fatalf("reopened index differs: %d rows, want %d", len(got), len(before))
	}
}

// parkWriter holds the store's writer in a request until the returned func
// is called (once or more; a deferred call is a safe net), so every later
// put waits on its commit.
func parkWriter(st *diskStore) (unpark func()) {
	parked, release := make(chan struct{}), make(chan struct{})
	st.send(storeOp{fn: func() {
		close(parked)
		<-release
	}})
	<-parked
	var once sync.Once
	return func() { once.Do(func() { close(release) }) }
}

// waitClosing waits until Close has begun on st.
func waitClosing(st *diskStore) {
	for {
		st.mu.Lock()
		closing := st.closing
		st.mu.Unlock()
		if closing {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStoreCloseDrainsQueuedPuts: puts still queued behind a busy writer
// when Close begins are committed before Close returns, and a reopen holds
// every one.
func TestStoreCloseDrainsQueuedPuts(t *testing.T) {
	dir := t.TempDir()
	st, err := openDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	unpark := parkWriter(st)
	defer unpark()
	const puts = 4
	var reported sync.WaitGroup
	for i := range puts {
		key, body, addr := storeArtifact(i)
		reported.Add(1)
		st.PutAsync(key, body, addr, reported.Done)
	}
	closed := make(chan struct{})
	go func() {
		st.Close()
		close(closed)
	}()
	waitClosing(st)
	unpark()
	<-closed
	reported.Wait()
	if got := indexOf(mustOpen(t, dir)); len(got) != puts {
		t.Fatalf("reopened index holds %d rows, want the %d puts queued at Close", len(got), puts)
	}
}

// waitRuns waits until s has started n runs.
func waitRuns(t *testing.T, s *Server, n uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for s.Runs() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d jobs ran", s.Runs(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerCloseWhileCommitting: a job whose run finished while the
// store's writer was busy reports running, not done, until its record is
// durable, and the executor holds the next finished job until then; Close
// lets the writer commit both and fails the jobs still queued, and after a
// restart each job reported done is served from disk without a run.
func TestServerCloseWhileCommitting(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Version: "v-test", StoreDir: dir}
	s := mustNew(t, cfg)
	ts := httptest.NewServer(s)
	defer ts.Close()

	unpark := parkWriter(s.disk)
	defer unpark()
	const jobs = 6
	keys := make([]string, jobs)
	for i := range keys {
		keys[i] = submit(t, ts.URL, fmt.Sprintf(`{"spec": %s, "seed": %d}`, tinySpec, 70+i)).Key
	}
	// One finished job waits on its commit, the next on the first's.
	waitRuns(t, s, 2)
	status := func(key string) string {
		code, _, data := getBody(t, ts.URL+"/jobs/"+key)
		var st jobStatus
		if code != http.StatusOK || json.Unmarshal(data, &st) != nil {
			t.Fatalf("GET /jobs/%s: status %d: %s", key, code, data)
		}
		return st.Status
	}
	for i, key := range keys {
		want := StateQueued
		if i < 2 {
			want = StateRunning
		}
		if got := status(key); got != want {
			t.Fatalf("job %d is %s while the writer is parked, want %s", i, got, want)
		}
	}

	closed := make(chan error)
	go func() { closed <- s.Close() }()
	for {
		s.mu.Lock()
		closing := s.closed
		s.mu.Unlock()
		if closing {
			break
		}
		time.Sleep(time.Millisecond)
	}
	unpark()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if s.Runs() != 2 {
		t.Fatalf("%d jobs ran, want the 2 started before Close", s.Runs())
	}
	for i, key := range keys {
		want := StateFailed
		if i < 2 {
			want = StateDone
		}
		if got := status(key); got != want {
			t.Fatalf("job %d is %s after Close, want %s", i, got, want)
		}
	}

	s2, ts2 := newTestServer(t, cfg)
	for _, key := range keys[:2] {
		if code, _, data := getBody(t, ts2.URL+"/results/"+key); code != http.StatusOK {
			t.Fatalf("restarted server: GET /results/%s: status %d: %s", key, code, data)
		}
	}
	if s2.Runs() != 0 {
		t.Fatalf("restarted server ran %d simulations", s2.Runs())
	}
}

// TestServeQueueFullWhileCommitting: while the store's writer is parked,
// the executor holds the second finished job, so the queue fills behind it
// and a further submit is refused with 503 rather than piling finished
// artifacts up in memory.
func TestServeQueueFullWhileCommitting(t *testing.T) {
	s, ts := newTestServer(t, Config{Version: "v-test", StoreDir: t.TempDir(), QueueDepth: 1})
	unpark := parkWriter(s.disk)
	defer unpark()
	req := func(seed int) string { return fmt.Sprintf(`{"spec": %s, "seed": %d}`, tinySpec, seed) }
	first := submit(t, ts.URL, req(80))
	waitRuns(t, s, 1)
	second := submit(t, ts.URL, req(81))
	waitRuns(t, s, 2)
	queued := submit(t, ts.URL, req(82))
	if queued.Status != StateQueued {
		t.Fatalf("third request status %q, want queued", queued.Status)
	}
	if code, data := postJSON(t, ts.URL+"/experiments", req(83)); code != http.StatusServiceUnavailable {
		t.Fatalf("fourth request: status %d, want 503: %s", code, data)
	}
	if s.Runs() != 2 {
		t.Fatalf("%d jobs ran while the writer was parked, want 2", s.Runs())
	}
	unpark()
	for _, key := range []string{first.Key, second.Key, queued.Key} {
		waitDone(t, ts.URL, key)
	}
}

// blockingStore is a federated store whose Publish blocks until release
// is closed, as one whose coordinator hangs would.
type blockingStore struct {
	publishing chan struct{} // receives once as each Publish starts
	release    chan struct{}
}

func (b *blockingStore) Lookup(string) ([]byte, string, bool) { return nil, "", false }

func (b *blockingStore) Publish(string, []byte, string) {
	b.publishing <- struct{}{}
	<-b.release
}

// TestStoreCommitsWhilePublishBlocks: a federated store that does not
// answer holds up the executor, but not the disk store's writer, so a
// blocking Put still commits.
func TestStoreCommitsWhilePublishBlocks(t *testing.T) {
	fed := &blockingStore{publishing: make(chan struct{}, 1), release: make(chan struct{})}
	s, ts := newTestServer(t, Config{Version: "v-test", StoreDir: t.TempDir(), Store: fed})
	var once sync.Once
	release := func() { once.Do(func() { close(fed.release) }) }
	defer release()
	job := submit(t, ts.URL, fmt.Sprintf(`{"spec": %s, "seed": 90}`, tinySpec))
	select {
	case <-fed.publishing:
	case <-time.After(30 * time.Second):
		t.Fatal("the job never published")
	}
	key, body, addr := storeArtifact(0)
	stored := make(chan struct{})
	go func() {
		s.StoreResult(key, body)
		close(stored)
	}()
	select {
	case <-stored:
	case <-time.After(10 * time.Second):
		t.Fatal("StoreResult's Put did not commit while a Publish was blocked")
	}
	if _, gotAddr, ok := s.disk.Get(key); !ok || gotAddr != addr {
		t.Fatalf("disk Get after StoreResult: ok=%v address %s, want %s", ok, gotAddr, addr)
	}
	release()
	waitDone(t, ts.URL, job.Key)
}
