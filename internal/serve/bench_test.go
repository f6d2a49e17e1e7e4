package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"lotuseater/internal/metrics"
)

// storeArtifact is the i-th benchmark artifact: 4 KiB, distinct per i.
func storeArtifact(i int) (key string, body []byte, address string) {
	body = make([]byte, 4<<10)
	binary.LittleEndian.PutUint64(body, uint64(i))
	return fmt.Sprintf("key-%06d", i), body, metrics.AddressBytes(body)
}

// prefilledStore opens a store over n artifacts written straight to disk
// (blobs and a snapshot, no fsyncs), as a store holding them would have
// left its directory, with a budget of maxBytes (<= 0 means the default).
func prefilledStore(b *testing.B, n int, maxBytes int64) *diskStore {
	b.Helper()
	dir := b.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		b.Fatal(err)
	}
	idx := storeIndex{Version: 1, Entries: make(map[string]*storeEntry, n)}
	for i := range n {
		key, body, addr := storeArtifact(i)
		blob := filepath.Join(dir, "blobs", "sha256-"+strings.TrimPrefix(addr, "sha256:"))
		if err := os.WriteFile(blob, body, 0o644); err != nil {
			b.Fatal(err)
		}
		idx.Entries[key] = &storeEntry{Address: addr, Size: int64(len(body)), Stored: int64(i)}
	}
	data, err := json.Marshal(idx)
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "index.json"), data, 0o644); err != nil {
		b.Fatal(err)
	}
	st, err := openDiskStore(dir, maxBytes, 0)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkStorePut times one Put of a new 4 KiB artifact into a store that
// already holds 250 or 10⁴ of them. Put returns once the blob and its index
// row are durable, so an op is the put's whole commit. At the budget the
// store is full, so each put also evicts the oldest row and journals its
// drop, as in a long-running server's steady state.
func BenchmarkStorePut(b *testing.B) {
	for _, c := range []struct {
		entries  int
		atBudget bool
	}{{250, false}, {10_000, false}, {10_000, true}} {
		name := fmt.Sprintf("entries=%d", c.entries)
		var maxBytes int64
		if c.atBudget {
			name += ",at-budget"
			maxBytes = int64(c.entries) * 4 << 10
		}
		b.Run(name, func(b *testing.B) {
			entries := c.entries
			st := prefilledStore(b, entries, maxBytes)
			defer st.Close()
			keys, bodies, addrs := make([]string, b.N), make([][]byte, b.N), make([]string, b.N)
			for i := range b.N {
				keys[i], bodies[i], addrs[i] = storeArtifact(entries + i)
			}
			b.ResetTimer()
			for i := range b.N {
				st.Put(keys[i], bodies[i], addrs[i])
			}
			b.StopTimer()
			want := entries + b.N
			if c.atBudget {
				want = entries
			}
			if got := st.Stats().Entries; got != want {
				b.Fatalf("store holds %d entries, want %d", got, want)
			}
		})
	}
}

// BenchmarkStoreGetWhilePutting times Gets of stored artifacts while another
// goroutine streams Puts into the same store, and reports the Get latency's
// p50 and p99: a Get that waits on a Put's fsync shows in the p99.
func BenchmarkStoreGetWhilePutting(b *testing.B) {
	const entries = 250
	st := prefilledStore(b, entries, 0)
	defer st.Close()
	started, stop, stopped := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for i := entries; ; i++ {
			st.Put(storeArtifact(i))
			if i == entries {
				close(started)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-started
	keys := make([]string, entries)
	for i := range keys {
		keys[i], _, _ = storeArtifact(i)
	}
	lat := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := range lat {
		key := keys[i%entries]
		start := time.Now()
		if _, _, ok := st.Get(key); !ok {
			b.Fatalf("Get(%s) missed", key)
		}
		lat[i] = time.Since(start)
	}
	b.StopTimer()
	close(stop)
	<-stopped
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "get-p50-ns")
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "get-p99-ns")
}
