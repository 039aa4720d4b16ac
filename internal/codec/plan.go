package codec

import (
	"encoding"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
)

// Values of a fixed shape travel as records (tag 9) instead of gob streams:
// the tag, an 8-byte fingerprint of the shape, then the value's fields in
// declaration order — fixed-width ones little-endian, strings and slices
// behind a uint32 element count. A type's layout is compiled once into a
// plan and cached, so after a type's first value no call takes a lock,
// sends a type descriptor or builds a decoder, which is what gob does on
// every call.
//
// A record is a struct with at least one field, all exported, each of them
// a bool, an integer or float kind, a string, a nested record, or a slice or
// non-empty array of any of these; or a slice or array of them. Maps,
// pointers, interfaces, empty structs and arrays, types that contain
// themselves and types with their own gob, binary or text marshalling stay
// on gob.

var le = binary.LittleEndian

// plans caches every type's record, or nil for a type that goes through gob.
var plans sync.Map // reflect.Type → *record

// record is the plan of a type that travels as a record, with its shape's
// fingerprint.
type record struct {
	*plan
	fingerprint uint64
}

// plan lays out the values of one type.
type plan struct {
	kind   reflect.Kind
	size   int     // encoded bytes when every value has the same size, else -1
	min    int     // fewest encoded bytes of any value, at least 1: bounds decoded counts
	elem   *plan   // slice or array element
	fields []*plan // struct fields, in declaration order
}

// recordOf returns t's record, compiling it on first use, or nil if t's
// values go through gob.
func recordOf(t reflect.Type) *record {
	if rec, ok := plans.Load(t); ok {
		return rec.(*record)
	}
	var rec *record
	if k := t.Kind(); k == reflect.Struct || k == reflect.Slice || k == reflect.Array {
		var shape strings.Builder
		if p := compile(t, &shape, map[reflect.Type]bool{}); p != nil {
			h := fnv.New64a()
			h.Write([]byte(shape.String()))
			rec = &record{plan: p, fingerprint: h.Sum64()}
		}
	}
	actual, _ := plans.LoadOrStore(t, rec)
	return actual.(*record)
}

var selfMarshalling = []reflect.Type{
	reflect.TypeFor[gob.GobEncoder](),
	reflect.TypeFor[encoding.BinaryMarshaler](),
	reflect.TypeFor[encoding.TextMarshaler](),
}

// compile returns t's plan and writes t's canonical shape — field names,
// kinds, nesting and array lengths — or returns nil if t is not a record
// field. open holds the types being compiled, to turn down one that
// contains itself.
func compile(t reflect.Type, shape *strings.Builder, open map[reflect.Type]bool) *plan {
	if open[t] {
		return nil
	}
	for _, m := range selfMarshalling {
		if t.Implements(m) || reflect.PointerTo(t).Implements(m) {
			return nil // gob would call the type's own method; keep it on gob
		}
	}
	p := &plan{kind: t.Kind(), size: -1}
	switch p.kind {
	case reflect.Bool, reflect.Int8, reflect.Uint8:
		p.size = 1
	case reflect.Int16, reflect.Uint16:
		p.size = 2
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		p.size = 4
	case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64, reflect.Float64:
		p.size = 8
	case reflect.String:
		p.min = 4
	case reflect.Slice, reflect.Array:
		if p.kind == reflect.Slice {
			shape.WriteString("[]")
		} else if t.Len() == 0 {
			return nil
		} else {
			shape.WriteString("[" + strconv.Itoa(t.Len()) + "]")
		}
		open[t] = true
		defer delete(open, t)
		if p.elem = compile(t.Elem(), shape, open); p.elem == nil {
			return nil
		}
		if p.kind == reflect.Slice {
			p.min = 4
		} else {
			p.min = t.Len() * p.elem.min
			if p.elem.size >= 0 {
				p.size = t.Len() * p.elem.size
			}
		}
		return p
	case reflect.Struct:
		if t.NumField() == 0 {
			return nil
		}
		open[t] = true
		defer delete(open, t)
		shape.WriteString("struct{")
		p.size = 0
		for i := range t.NumField() {
			f := t.Field(i)
			if !f.IsExported() {
				return nil
			}
			shape.WriteString(f.Name + " ")
			fp := compile(f.Type, shape, open)
			if fp == nil {
				return nil
			}
			shape.WriteString(";")
			p.fields = append(p.fields, fp)
			p.min += fp.min
			if p.size < 0 || fp.size < 0 {
				p.size = -1
			} else {
				p.size += fp.size
			}
		}
		shape.WriteString("}")
		return p
	default:
		return nil
	}
	shape.WriteString(p.kind.String())
	p.min = max(p.min, p.size)
	return p
}

// encode writes v as a tag-9 payload in one exactly sized buffer.
func (rec *record) encode(v reflect.Value) ([]byte, error) {
	n := rec.sizeOf(v)
	if uint64(n) > math.MaxUint32 {
		// Every element takes at least a byte, so no count can overflow
		// its uint32 in a record that does not.
		return nil, fmt.Errorf("codec: encode %v: %d-byte record", v.Type(), n)
	}
	out := make([]byte, 9, 9+n)
	out[0] = tagRecord
	le.PutUint64(out[1:], rec.fingerprint)
	return rec.put(out, v), nil
}

// sizeOf returns the encoded size of v.
func (p *plan) sizeOf(v reflect.Value) int {
	if p.size >= 0 {
		return p.size
	}
	n := 0
	switch p.kind {
	case reflect.String:
		return 4 + v.Len()
	case reflect.Slice, reflect.Array:
		if p.kind == reflect.Slice {
			n = 4
		}
		if p.elem.size >= 0 {
			return n + v.Len()*p.elem.size
		}
		for i := range v.Len() {
			n += p.elem.sizeOf(v.Index(i))
		}
	default:
		for i, f := range p.fields {
			n += f.sizeOf(v.Field(i))
		}
	}
	return n
}

// put appends v's encoding to b.
func (p *plan) put(b []byte, v reflect.Value) []byte {
	switch p.kind {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return putBits(b, uint64(v.Int()), p.size)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return putBits(b, v.Uint(), p.size)
	case reflect.Float32:
		return le.AppendUint32(b, math.Float32bits(float32(v.Float())))
	case reflect.Float64:
		return le.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		b = le.AppendUint32(b, uint32(v.Len()))
		return append(b, v.String()...)
	case reflect.Slice, reflect.Array:
		if p.kind == reflect.Slice {
			b = le.AppendUint32(b, uint32(v.Len()))
		}
		// Bytes needs an addressable array; an encoded value need not be one.
		if p.elem.kind == reflect.Uint8 && (p.kind == reflect.Slice || v.CanAddr()) {
			return append(b, v.Bytes()...)
		}
		for i := range v.Len() {
			b = p.elem.put(b, v.Index(i))
		}
		return b
	default:
		for i, f := range p.fields {
			b = f.put(b, v.Field(i))
		}
		return b
	}
}

// putBits appends the low size bytes of x, little-endian.
func putBits(b []byte, x uint64, size int) []byte {
	switch size {
	case 1:
		return append(b, byte(x))
	case 2:
		return le.AppendUint16(b, uint16(x))
	case 4:
		return le.AppendUint32(b, uint32(x))
	}
	return le.AppendUint64(b, x)
}

// decodeRecord decodes a tag-9 payload into out, which must point to a value
// of exactly the shape the payload was written from.
func decodeRecord(payload []byte, out any) error {
	dst := reflect.ValueOf(out)
	if dst.Kind() != reflect.Pointer || dst.IsNil() {
		return mismatch("a record", out)
	}
	if len(payload) < 8 {
		return fmt.Errorf("%w: record of %d bytes", ErrCorrupt, len(payload))
	}
	rec := recordOf(dst.Type().Elem())
	if rec == nil || rec.fingerprint != le.Uint64(payload) {
		return mismatch("a record of another shape", out)
	}
	r := Reader{data: payload[8:]}
	rec.get(&r, dst.Elem())
	if r.err == nil && r.off != len(r.data) {
		return fmt.Errorf("%w: %d bytes after the record", ErrCorrupt, len(r.data)-r.off)
	}
	return r.err
}

// get decodes the next value from r into v, which is settable. Slices and
// strings are copied out of r's data. After r fails, what get leaves in v
// is unspecified.
func (p *plan) get(r *Reader, v reflect.Value) {
	switch p.kind {
	case reflect.Bool:
		b := r.Byte()
		if b > 1 && r.err == nil {
			r.err = fmt.Errorf("%w: bool byte %d at offset %d", ErrCorrupt, b, r.off-1)
		}
		v.SetBool(b == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		shift := 64 - 8*p.size // sign-extends the low size bytes
		x := int64(r.bits(p.size)<<shift) >> shift
		if v.OverflowInt(x) { // only an 8-byte int on a 32-bit build
			r.overflow(x, v)
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := r.bits(p.size)
		if v.OverflowUint(x) {
			r.overflow(x, v)
		}
		v.SetUint(x)
	case reflect.Float32:
		v.SetFloat(float64(math.Float32frombits(uint32(r.bits(4)))))
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(r.bits(8)))
	case reflect.String:
		v.SetString(string(r.next(r.count(uint32(r.bits(4)), 1))))
	case reflect.Slice:
		n := r.count(uint32(r.bits(4)), p.elem.min)
		if n == 0 {
			v.SetZero()
			return
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		p.elem.getEach(r, s)
		v.Set(s)
	case reflect.Array:
		p.elem.getEach(r, v)
	default:
		for i, f := range p.fields {
			f.get(r, v.Field(i))
		}
	}
}

// getEach decodes every element of seq, an addressable array or a slice.
func (p *plan) getEach(r *Reader, seq reflect.Value) {
	if p.kind == reflect.Uint8 {
		copy(seq.Bytes(), r.next(seq.Len()))
		return
	}
	for i := 0; i < seq.Len() && r.err == nil; i++ {
		p.get(r, seq.Index(i))
	}
}

// bits reads a size-byte little-endian integer.
func (r *Reader) bits(size int) uint64 {
	b := r.next(size)
	switch {
	case b == nil:
		return 0
	case size == 1:
		return uint64(b[0])
	case size == 2:
		return uint64(le.Uint16(b))
	case size == 4:
		return uint64(le.Uint32(b))
	}
	return le.Uint64(b)
}

func (r *Reader) overflow(x any, v reflect.Value) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %d overflows %v", ErrTypeMismatch, x, v.Type())
	}
}
