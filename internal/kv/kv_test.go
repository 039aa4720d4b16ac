package kv

import (
	"bytes"
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
	s.WriteBatch([]string{"a"}, [][]byte{nil}, []bool{true})
	if _, ok := s.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
	s.WriteBatch([]string{"a"}, [][]byte{nil}, []bool{true}) // deleting an absent key changes nothing
	if s.Len() != 1 || s.Bytes() != int64(len("b")+1) {
		t.Fatalf("len=%d bytes=%d after deletes, want 1 and %d", s.Len(), s.Bytes(), len("b")+1)
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
	s.WriteBatch([]string{"key2"}, [][]byte{nil}, []bool{true})
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
				s.WriteBatch([]string{key}, [][]byte{nil}, []bool{true})
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
