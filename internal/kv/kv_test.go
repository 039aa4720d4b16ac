package kv

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestPutGetDelete(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get("missing"); ok {
		t.Fatal("missing key reported present")
	}
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2"))
	if v, ok := s.Get("a"); !ok || string(v) != "1" {
		t.Fatalf("got %q", v)
	}
	s.Put("a", []byte("updated"))
	if v, _ := s.Get("a"); string(v) != "updated" {
		t.Fatal("overwrite failed")
	}
	if !s.Delete("a") {
		t.Fatal("delete reported missing")
	}
	if s.Delete("a") {
		t.Fatal("double delete reported present")
	}
	if s.Len() != 1 {
		t.Fatalf("len=%d want 1", s.Len())
	}
}

func TestValueIsolation(t *testing.T) {
	s := NewStore()
	s.Put("k", []byte("mutable"))
	v, _ := s.Get("k")
	other := NewStore()
	other.Restore(s.Snapshot())
	// Replacing a value leaves a slice handed out earlier, and every store
	// sharing it, untouched: values are never changed in place, which is
	// what lets Get and Snapshot share them.
	s.Put("k", []byte("changed"))
	if string(v) != "mutable" {
		t.Fatal("Put must replace the stored value, not overwrite it in place")
	}
	if got, _ := other.Get("k"); string(got) != "mutable" {
		t.Fatalf("a restored store sees %q after the source replaced the value", got)
	}
}

// A batch's values are adopted, not copied, by Put, PutBatch and state
// transfer alike: every store holding a value holds the slice it was handed.
func TestPutBatchAdoptsValues(t *testing.T) {
	s := NewStore()
	keys := []string{"a", "b", "a"}
	values := [][]byte{[]byte("first"), []byte("second"), []byte("third")}
	s.PutBatch(keys, values)
	single := []byte("single")
	s.Put("c", single)
	want := map[string][]byte{"a": values[2], "b": values[1], "c": single} // a later duplicate wins
	other := NewStore()
	other.Restore(s.Snapshot())
	for _, st := range []*Store{s, other} {
		for k, w := range want {
			if v, ok := st.Get(k); !ok || &v[0] != &w[0] || len(v) != len(w) {
				t.Fatalf("key %q does not hold the slice it was handed", k)
			}
		}
		if st.Len() != 3 || st.Bytes() != int64(3+len("third")+len("second")+len("single")) {
			t.Fatalf("len=%d bytes=%d after a batch with a duplicate key", st.Len(), st.Bytes())
		}
	}
	if n := testing.AllocsPerRun(100, func() { s.PutBatch(keys, values); s.Put("c", single) }); n != 0 {
		t.Fatalf("writes over resident keys allocate %v times, want 0", n)
	}
}

func TestBytesAccounting(t *testing.T) {
	s := NewStore()
	s.Put("key1", make([]byte, 100))
	s.Put("key2", make([]byte, 200))
	want := int64(4+100) + int64(4+200)
	if s.Bytes() != want {
		t.Fatalf("bytes=%d want %d", s.Bytes(), want)
	}
	s.Put("key1", make([]byte, 50)) // shrink in place
	want = int64(4+50) + int64(4+200)
	if s.Bytes() != want {
		t.Fatalf("bytes after overwrite=%d want %d", s.Bytes(), want)
	}
	s.Delete("key2")
	if s.Bytes() != int64(4+50) {
		t.Fatalf("bytes after delete=%d", s.Bytes())
	}
}

func TestKeysPrefix(t *testing.T) {
	s := NewStore()
	s.Put("task/1", nil)
	s.Put("task/2", nil)
	s.Put("obj/1", nil)
	keys := s.Keys("task/")
	if !reflect.DeepEqual(keys, []string{"task/1", "task/2"}) {
		t.Fatalf("keys=%v", keys)
	}
	if len(s.Keys("")) != 3 {
		t.Fatal("empty prefix must return all keys")
	}
	if len(s.Keys("zzz")) != 0 {
		t.Fatal("unmatched prefix must return nothing")
	}
}

func TestSnapshotRestore(t *testing.T) {
	s := NewStore()
	for i := 0; i < 100; i++ {
		s.Put(fmt.Sprintf("k%03d", i), []byte{byte(i)})
	}
	snap := s.Snapshot()
	if len(snap) != 100 {
		t.Fatalf("snapshot size %d", len(snap))
	}
	// Snapshot must be sorted by key.
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Key >= snap[i].Key {
			t.Fatal("snapshot not sorted")
		}
	}
	other := NewStore()
	other.Put("stale", []byte("x"))
	other.Restore(snap)
	if other.Len() != 100 {
		t.Fatalf("restored len %d", other.Len())
	}
	if _, ok := other.Get("stale"); ok {
		t.Fatal("restore must drop previous contents")
	}
	if v, ok := other.Get("k042"); !ok || v[0] != 42 {
		t.Fatal("restored value wrong")
	}
	if other.Bytes() != s.Bytes() {
		t.Fatalf("restored bytes %d != %d", other.Bytes(), s.Bytes())
	}
}

func TestVersionAdvances(t *testing.T) {
	s := NewStore()
	v0 := s.Version()
	s.Put("a", nil)
	if s.Version() <= v0 {
		t.Fatal("version must advance on put")
	}
	v1 := s.Version()
	s.Delete("a")
	if s.Version() <= v1 {
		t.Fatal("version must advance on delete")
	}
}

func TestFlushAndReadBack(t *testing.T) {
	s := NewStore()
	for i := 0; i < 50; i++ {
		s.Put(fmt.Sprintf("task/%02d", i), bytes.Repeat([]byte{byte(i)}, 10))
	}
	s.Put("node/1", []byte("keep"))
	var buf bytes.Buffer
	n, freed, err := s.Flush(&buf, func(key string, _ []byte) bool { return key[:5] == "task/" })
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Fatalf("flushed %d entries", n)
	}
	if freed <= 0 {
		t.Fatal("flush must report freed bytes")
	}
	if s.Len() != 1 {
		t.Fatalf("store should keep only unmatched keys, len=%d", s.Len())
	}
	entries, err := ReadFlushed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 50 {
		t.Fatalf("read back %d entries", len(entries))
	}
	for _, e := range entries {
		if len(e.Value) != 10 {
			t.Fatalf("entry %q has wrong value length", e.Key)
		}
	}
	// Flushing everything with a nil predicate empties the store.
	var buf2 bytes.Buffer
	if n, _, err := s.Flush(&buf2, nil); err != nil || n != 1 {
		t.Fatalf("flush all: n=%d err=%v", n, err)
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatal("store must be empty after full flush")
	}
}

func TestReadFlushedCorrupt(t *testing.T) {
	if _, err := ReadFlushed(bytes.NewReader([]byte{0, 0, 0, 5, 0, 0, 0, 1, 'a'})); err == nil {
		t.Fatal("expected error for truncated stream")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("g%d/k%d", g, i)
				s.Put(key, []byte{byte(i)})
				if v, ok := s.Get(key); !ok || v[0] != byte(i) {
					t.Errorf("lost write for %s", key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 8*500 {
		t.Fatalf("len=%d", s.Len())
	}
}

// Property: a put followed by a get returns the stored value, and Bytes never
// goes negative across random operation sequences.
func TestStoreProperty(t *testing.T) {
	f := func(ops []struct {
		Key   uint8
		Value []byte
		Del   bool
	}) bool {
		s := NewStore()
		shadow := make(map[string][]byte)
		for _, op := range ops {
			key := fmt.Sprintf("k%d", op.Key%32)
			if op.Del {
				s.Delete(key)
				delete(shadow, key)
			} else {
				s.Put(key, op.Value)
				shadow[key] = append([]byte(nil), op.Value...)
			}
			if s.Bytes() < 0 {
				return false
			}
		}
		if s.Len() != len(shadow) {
			return false
		}
		for k, want := range shadow {
			got, ok := s.Get(k)
			if !ok || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// failingWriter rejects every write, simulating a full or failed disk.
type failingWriter struct{ writes int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	return 0, errors.New("disk full")
}

// Regression test: Flush must not drop entries from memory when the writer
// fails. An earlier version deleted entries as they were buffered, so a
// failure on the final buffer flush silently lost every entry that never
// reached the writer.
func TestFlushFailureLeavesStoreIntact(t *testing.T) {
	s := NewStore()
	s.Put("task/1", []byte("lineage-1"))
	s.Put("task/2", []byte("lineage-2"))
	wantBytes := s.Bytes()
	wantVersion := s.Version()

	fw := &failingWriter{}
	n, freed, err := s.Flush(fw, nil)
	if err == nil {
		t.Fatal("expected flush error from failing writer")
	}
	if n != 0 || freed != 0 {
		t.Fatalf("failed flush reported progress: n=%d freed=%d", n, freed)
	}
	if fw.writes == 0 {
		t.Fatal("writer never invoked; failure path not exercised")
	}
	if s.Len() != 2 || s.Bytes() != wantBytes {
		t.Fatalf("failed flush mutated store: len=%d bytes=%d (want 2, %d)", s.Len(), s.Bytes(), wantBytes)
	}
	if s.Version() != wantVersion {
		t.Fatalf("failed flush bumped version: %d -> %d", wantVersion, s.Version())
	}

	// The condition is recoverable: retrying against a working writer flushes
	// both entries and they read back intact.
	var buf bytes.Buffer
	n, _, err = s.Flush(&buf, nil)
	if err != nil || n != 2 {
		t.Fatalf("retry flush: n=%d err=%v", n, err)
	}
	entries, err := ReadFlushed(&buf)
	if err != nil || len(entries) != 2 {
		t.Fatalf("read back: %d entries, err=%v", len(entries), err)
	}
	if s.Len() != 0 {
		t.Fatalf("store not emptied after successful retry: %d keys", s.Len())
	}
}

// WriteBatch applies puts and deletes in slice order under one lock: a
// delete after a put of the same key wins, a put after a delete recreates
// it, deleting an absent key changes nothing, and the byte count follows.
func TestWriteBatchDeletes(t *testing.T) {
	s := NewStore()
	s.Put("gone", []byte("xx"))
	s.Put("back", []byte("y"))
	s.WriteBatch(
		[]string{"gone", "fresh", "fresh", "back", "back", "absent"},
		[][]byte{nil, []byte("z"), nil, nil, []byte("www"), nil},
		[]bool{true, false, true, true, false, true},
	)
	if _, ok := s.Get("gone"); ok {
		t.Fatal("deleted key still stored")
	}
	if _, ok := s.Get("fresh"); ok {
		t.Fatal("a put followed by a delete in one batch left the key")
	}
	if v, ok := s.Get("back"); !ok || string(v) != "www" {
		t.Fatalf("a delete followed by a put in one batch: %q ok=%v", v, ok)
	}
	if s.Len() != 1 || s.Bytes() != int64(len("back")+3) {
		t.Fatalf("len %d bytes %d after the batch, want 1 and %d", s.Len(), s.Bytes(), len("back")+3)
	}
}
