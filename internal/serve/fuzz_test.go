package serve

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lotuseater/internal/metrics"
)

// The disk store reads its snapshot and journal back from disk, which a
// crash, a full disk or another process may have left in any state. Open
// must come up with a valid index from whatever it finds: never panic,
// never allocate on a length field's say-so, and never trust a row whose
// blob does not match it.

// fuzzBlobs are the artifacts each fuzzed store directory holds, so that
// rows naming them survive validation.
var fuzzBlobs = []string{"alpha", "beta", "gamma"}

// FuzzStoreIndex opens a store over arbitrary snapshot and journal bytes.
// Every input must open to an index of rows whose blobs exist at their
// size; the open compacts, so a second open must read back a byte-identical
// snapshot and the same index; and eight zero bytes after the journal (a
// record no checksum can pass with a payload no JSON decoder accepts) must
// change nothing, because replay drops a bad tail.
func FuzzStoreIndex(f *testing.F) {
	entry := func(i int) *storeEntry {
		body := fuzzBody(i)
		return &storeEntry{Address: fuzzAddress(i), Size: int64(len(body)), Stored: int64(1_000 + i)}
	}
	snapshot, err := json.Marshal(storeIndex{Version: 1, Entries: map[string]*storeEntry{"k0": entry(0), "k1": entry(1)}})
	if err != nil {
		f.Fatal(err)
	}
	journal := appendRecord(nil, "k2", entry(2))
	journal = appendRecord(journal, "k0", nil)
	journal = appendRecord(journal, "k1", entry(2))
	hugeLength := binary.LittleEndian.AppendUint32(nil, 0xffffffff)
	hugeLength = append(hugeLength, journal...)
	badSum := append([]byte(nil), journal...)
	badSum[4] ^= 0xff
	notJSON := []byte("not json")
	garbled := binary.LittleEndian.AppendUint32(nil, uint32(len(notJSON)))
	garbled = binary.LittleEndian.AppendUint32(garbled, crc32.Checksum(notJSON, castagnoli))
	garbled = append(garbled, notJSON...)

	f.Add([]byte(nil), []byte(nil))
	f.Add(snapshot, []byte(nil))
	f.Add(snapshot, journal)
	f.Add(snapshot, journal[:len(journal)-3])
	f.Add(snapshot, hugeLength)
	f.Add(snapshot, badSum)
	f.Add(snapshot, append(append([]byte(nil), journal...), garbled...))
	f.Add([]byte(`{"version":1,"entries":{"k":{"address":"sha256:../../etc/passwd","size":1}}}`), journal)
	f.Add([]byte(`{"entries":{"k":null}}`), garbled)
	f.Add([]byte(`{"version":1,"entries":`), journal)

	f.Fuzz(func(t *testing.T, snapshot, journal []byte) {
		first, snap := openFuzzStore(t, snapshot, journal)
		for key, e := range first {
			if len(key) > maxKeyBytes || !validAddress(e.Address) || !fuzzBlobSized(e) {
				t.Fatalf("row %q = %+v survived open", key, e)
			}
		}
		again, snapAgain := openFuzzStore(t, snap, nil)
		if !reflect.DeepEqual(again, first) || string(snapAgain) != string(snap) {
			t.Fatalf("a second open changed the store:\n%s\nthen\n%s", snap, snapAgain)
		}
		tailed, _ := openFuzzStore(t, snapshot, append(append([]byte(nil), journal...), make([]byte, 8)...))
		if !reflect.DeepEqual(tailed, first) {
			t.Fatalf("zero bytes after the journal changed the index: %v, want %v", tailed, first)
		}
	})
}

func fuzzBody(i int) []byte    { return []byte(fuzzBlobs[i]) }
func fuzzAddress(i int) string { return metrics.AddressBytes(fuzzBody(i)) }

// fuzzBlobSized reports whether e names one of fuzzBlobs at its size.
func fuzzBlobSized(e storeEntry) bool {
	for i := range fuzzBlobs {
		if e.Address == fuzzAddress(i) && e.Size == int64(len(fuzzBody(i))) {
			return true
		}
	}
	return false
}

// openFuzzStore opens a store over fuzzBlobs and the given snapshot and
// journal (nil: no file), and returns its index and the snapshot it
// compacted to, checking that the open emptied the journal.
func openFuzzStore(t *testing.T, snapshot, journal []byte) (map[string]storeEntry, []byte) {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := range fuzzBlobs {
		blob := (&diskStore{dir: dir}).blobPath(fuzzAddress(i))
		if err := os.WriteFile(blob, fuzzBody(i), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range map[string][]byte{snapshotFile: snapshot, journalFile: journal} {
		if data == nil {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := openDiskStore(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	index := indexOf(st)
	st.Close()
	if rest := readFile(t, filepath.Join(dir, journalFile)); len(rest) != 0 {
		t.Fatalf("open left %d journal bytes", len(rest))
	}
	return index, readFile(t, filepath.Join(dir, snapshotFile))
}
