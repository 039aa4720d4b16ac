package codec

import (
	"encoding/binary"
	"fmt"
)

// The control plane's records — task specs and the GCS table entries — are
// hand-laid-out big-endian structures rather than tagged values: fixed-width
// integers, 16-byte IDs, and strings and byte fields behind a uint32 length.
// Their encoders append straight into one buffer (binary.BigEndian.Append*
// and AppendString); Reader is the decoders' shared cursor.

// AppendString appends s behind its uint32 length.
func AppendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// Reader is a bounds-checked cursor over one record. The first read past the
// end sticks: it and every later read return zero values, and Err reports
// where the record ran out, so a decoder reads field after field and checks
// once at the end.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader returns a cursor at the start of data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err reports the first truncation met, wrapping ErrCorrupt, or nil.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: record truncated at offset %d", ErrCorrupt, r.off)
	}
}

// next returns the next n bytes, or nil once the record has run out.
func (r *Reader) next(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.data)-r.off {
		r.fail()
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// Len returns the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.data) - r.off }

// Count reads the uint32 element count of a sequence whose elements take at
// least elemSize bytes each. It fails (returning 0) if the rest of the record
// could not hold that many, so a decoder may size a slice or map by the
// result without trusting the input.
func (r *Reader) Count(elemSize int) int { return r.count(r.U32(), elemSize) }

// count checks an element count read in either byte order against the rest
// of the record.
func (r *Reader) count(u uint32, elemSize int) int {
	n := int(u)
	if r.err != nil || n < 0 || n > (len(r.data)-r.off)/elemSize {
		r.fail()
		return 0
	}
	return n
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.next(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.next(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.next(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.next(int(r.U32()))) }

// Bytes reads a length-prefixed byte field into a slice of its own.
func (r *Reader) Bytes() []byte { return append([]byte{}, r.next(int(r.U32()))...) }

// ID reads a 16-byte identifier into dst.
func (r *Reader) ID(dst *[16]byte) { copy(dst[:], r.next(len(dst))) }
