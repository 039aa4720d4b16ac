package codec

import (
	"encoding/binary"
	"errors"
	"testing"
)

func TestReaderReadsWhatTheAppendersWrote(t *testing.T) {
	id := [16]byte{1, 2, 3, 15: 9}
	rec := []byte{7}
	rec = binary.BigEndian.AppendUint32(rec, 0xDEADBEEF)
	rec = binary.BigEndian.AppendUint64(rec, 1<<63|5)
	rec = AppendString(rec, "héllo")
	rec = AppendString(rec, "")
	rec = append(rec, id[:]...)
	rec = binary.BigEndian.AppendUint32(rec, 2) // two one-byte elements
	rec = append(rec, 'a', 'b')

	r := NewReader(rec)
	var gotID [16]byte
	if b, u, v := r.Byte(), r.U32(), r.U64(); b != 7 || u != 0xDEADBEEF || v != 1<<63|5 {
		t.Fatalf("fixed-width fields: %d %x %x", b, u, v)
	}
	if s, empty := r.Str(), r.Bytes(); s != "héllo" || empty == nil || len(empty) != 0 {
		t.Fatalf("length-prefixed fields: %q %v", s, empty)
	}
	if r.ID(&gotID); gotID != id {
		t.Fatalf("id: %v", gotID)
	}
	if n := r.Count(1); n != 2 || r.Byte() != 'a' || r.Byte() != 'b' || r.Err() != nil {
		t.Fatalf("sequence: n=%d err=%v", n, r.Err())
	}
	// One byte too far: the failure sticks and names the offset.
	if r.Byte() != 0 || r.U64() != 0 || r.Str() != "" || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("read past the end: err=%v", r.Err())
	}
	// Bytes hands out a copy, not a view of the record.
	r = NewReader(AppendString(nil, "xy"))
	field := r.Bytes()
	field[0] = 'Z'
	if again := NewReader(AppendString(nil, "xy")).Str(); again != "xy" || string(field) != "Zy" {
		t.Fatal("Bytes aliases the record")
	}
}

// Truncation anywhere, and counts or lengths the record cannot back, fail
// without the reader (or a decoder sizing a slice by Count) allocating for
// them.
func TestReaderRejectsWhatTheRecordCannotHold(t *testing.T) {
	rec := AppendString(binary.BigEndian.AppendUint32(nil, 3), "abc")
	for cut := 0; cut < len(rec); cut++ {
		r := NewReader(rec[:cut])
		r.U32()
		r.Str()
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Fatalf("truncation at %d not reported: %v", cut, r.Err())
		}
	}
	huge := binary.BigEndian.AppendUint32(nil, 0xFFFFFFFF)
	if r := NewReader(huge); r.Str() != "" || r.Err() == nil {
		t.Fatal("4 GiB string length accepted")
	}
	if r := NewReader(huge); r.Bytes() == nil || r.Err() == nil {
		t.Fatal("4 GiB byte field length accepted")
	}
	if r := NewReader(append(huge, 1, 2, 3)); r.Count(1) != 0 || r.Err() == nil {
		t.Fatal("element count beyond the record accepted")
	}
	if r := NewReader(append(binary.BigEndian.AppendUint32(nil, 2), 1, 2, 3)); r.Count(2) != 0 || r.Err() == nil {
		t.Fatal("two 2-byte elements accepted in 3 bytes")
	}
}
