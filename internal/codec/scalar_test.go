package codec

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"reflect"
	"testing"
)

// sample is one value of a tagged kind with the tag its encoding must carry.
type sample struct {
	v   any
	tag byte
}

// samples covers every tagged kind, each with its extremes.
func samples() []sample {
	return []sample{
		{false, tagBool}, {true, tagBool},
		{int(0), tagInt}, {int(math.MinInt), tagInt}, {int(math.MaxInt), tagInt},
		{int8(math.MinInt8), tagInt}, {int8(math.MaxInt8), tagInt},
		{int16(math.MinInt16), tagInt}, {int16(math.MaxInt16), tagInt},
		{int32(math.MinInt32), tagInt}, {int32(math.MaxInt32), tagInt},
		{int64(math.MinInt64), tagInt}, {int64(math.MaxInt64), tagInt}, {int64(-1), tagInt},
		{uint(0), tagUint}, {uint(math.MaxUint), tagUint},
		{uint8(math.MaxUint8), tagUint}, {uint16(math.MaxUint16), tagUint},
		{uint32(math.MaxUint32), tagUint}, {uint64(math.MaxUint64), tagUint},
		{float32(0), tagFloat}, {float32(math.MaxFloat32), tagFloat}, {float32(math.SmallestNonzeroFloat32), tagFloat},
		{float32(math.Inf(-1)), tagFloat}, {float32(math.NaN()), tagFloat},
		{float64(0), tagFloat}, {math.Copysign(0, -1), tagFloat}, {math.MaxFloat64, tagFloat},
		{math.SmallestNonzeroFloat64, tagFloat}, {math.Inf(1), tagFloat}, {math.NaN(), tagFloat},
		{[]float64{}, tagFloat64}, {[]float64{math.NaN(), -0.5, math.MaxFloat64}, tagFloat64},
		{[]float32{}, tagFloat32}, {[]float32{float32(math.NaN()), 1.5}, tagFloat32},
		{[]byte{}, tagBytes}, {[]byte{0, 255, 7}, tagBytes},
		{"", tagString}, {"héllo\x00", tagString},
	}
}

// same compares a decoded value with what was encoded: floats bit for bit
// (NaN included), slices element-wise with nil equal to empty.
func same(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	if va.Type() != vb.Type() {
		return false
	}
	switch va.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(va.Float()) == math.Float64bits(vb.Float())
	case reflect.Slice:
		if va.Len() != vb.Len() {
			return false
		}
		for i := 0; i < va.Len(); i++ {
			if !same(va.Index(i).Interface(), vb.Index(i).Interface()) {
				return false
			}
		}
		return true
	default:
		return a == b
	}
}

// class groups the types a payload of one tag may decode into.
func class(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return "int"
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return "uint"
	case reflect.Float32, reflect.Float64:
		return "float"
	default:
		return t.String()
	}
}

// errClass is what a caller can tell apart about a decode failure.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrTypeMismatch):
		return "mismatch"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	default:
		return "gob"
	}
}

// decodeBoth decodes data into a fresh destination of type dt with Decode and
// with DecodeBorrowed and holds the pair to DecodeBorrowed's contract: the
// same error class and the same value, and only a []byte destination shares
// memory with the input — as exactly the payload, with no spare capacity to
// append into. It returns what Decode produced.
func decodeBoth(t testing.TB, data []byte, dt reflect.Type) (any, error) {
	t.Helper()
	input := bytes.Clone(data)
	own, view := reflect.New(dt), reflect.New(dt)
	err := Decode(input, own.Interface())
	berr := DecodeBorrowed(input, view.Interface())
	if errClass(err) != errClass(berr) {
		t.Fatalf("into *%v: Decode says %v, DecodeBorrowed says %v", dt, err, berr)
	}
	if err != nil {
		return nil, err
	}
	got, borrowed := own.Elem().Interface(), view.Elem().Interface()
	if !same(got, borrowed) {
		t.Fatalf("into *%v: Decode gives %v, DecodeBorrowed gives %v", dt, got, borrowed)
	}
	if b, ok := borrowed.([]byte); ok && len(b) > 0 {
		if &b[0] != &input[1] || cap(b) != len(b) {
			t.Fatalf("borrowed []byte is not the payload itself (cap %d, len %d)", cap(b), len(b))
		}
		return got, nil
	}
	for i := range input {
		input[i] ^= 0xFF
	}
	if !same(got, borrowed) {
		t.Fatalf("into *%v: the borrowed value changed with its input: it shares memory", dt)
	}
	return got, nil
}

func TestTaggedKindsRoundTrip(t *testing.T) {
	for _, s := range samples() {
		data, err := Encode(s.v)
		if err != nil {
			t.Fatalf("encode %T(%v): %v", s.v, s.v, err)
		}
		if data[0] != s.tag {
			t.Errorf("%T encodes with tag %d, want %d", s.v, data[0], s.tag)
		}
		got, err := decodeBoth(t, data, reflect.TypeOf(s.v))
		if err != nil {
			t.Fatalf("decode %T(%v): %v", s.v, s.v, err)
		}
		if !same(got, s.v) {
			t.Errorf("%T round trip: got %v, want %v", s.v, got, s.v)
		}
	}
}

func TestWrongDestinationIsTypeMismatch(t *testing.T) {
	all := samples()
	for _, s := range all {
		data := MustEncode(s.v)
		for _, d := range all {
			dt := reflect.TypeOf(d.v)
			if class(dt) == class(reflect.TypeOf(s.v)) {
				continue
			}
			err := Decode(data, reflect.New(dt).Interface())
			if !errors.Is(err, ErrTypeMismatch) {
				t.Errorf("decode %T payload into *%v: got %v, want ErrTypeMismatch", s.v, dt, err)
			}
		}
		// Not a pointer, and a pointer to something no tag covers.
		for _, dst := range []any{s.v, &struct{ X int }{}, nil} {
			if err := Decode(data, dst); !errors.Is(err, ErrTypeMismatch) {
				t.Errorf("decode %T payload into %T: got %v, want ErrTypeMismatch", s.v, dst, err)
			}
		}
	}
}

func TestScalarOverflowIsTypeMismatch(t *testing.T) {
	var (
		i8  int8
		i32 int32
		u8  uint8
		u32 uint32
		f32 float32
		i64 int64
	)
	for _, c := range []struct {
		v   any
		dst any
	}{
		{int64(math.MaxInt64), &i32}, {int(-129), &i8}, {int16(128), &i8},
		{uint64(math.MaxUint64), &u32}, {uint16(256), &u8},
		{1e300, &f32}, {-1e300, &f32},
	} {
		if err := Decode(MustEncode(c.v), c.dst); !errors.Is(err, ErrTypeMismatch) {
			t.Errorf("decode %T(%v) into %T: got %v, want ErrTypeMismatch", c.v, c.v, c.dst, err)
		}
	}
	// A narrow value decodes into any wider (or equal) kind of its class.
	if err := Decode(MustEncode(int8(-7)), &i64); err != nil || i64 != -7 {
		t.Errorf("int8 into int64: %d %v", i64, err)
	}
	if err := Decode(MustEncode(int64(100)), &i8); err != nil || i8 != 100 {
		t.Errorf("small int64 into int8: %d %v", i8, err)
	}
	if err := Decode(MustEncode(math.Inf(1)), &f32); err != nil || !math.IsInf(float64(f32), 1) {
		t.Errorf("+Inf into float32: %v %v", f32, err)
	}
}

// oldEncode is what Encode produced for scalars before they had tags: a gob
// stream behind tagGob.
func oldEncode(t testing.TB, v any) []byte {
	var buf bytes.Buffer
	buf.WriteByte(tagGob)
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestOldGobScalarPayloadsStillDecode(t *testing.T) {
	for _, s := range samples() {
		switch s.tag {
		case tagBool, tagInt, tagUint, tagFloat:
		default:
			continue
		}
		dst := reflect.New(reflect.TypeOf(s.v))
		if err := Decode(oldEncode(t, s.v), dst.Interface()); err != nil {
			t.Fatalf("decode gob-tagged %T(%v): %v", s.v, s.v, err)
		}
		if got := dst.Elem().Interface(); !same(got, s.v) {
			t.Errorf("gob-tagged %T: got %v, want %v", s.v, got, s.v)
		}
	}
}

func TestCorruptScalarPayloads(t *testing.T) {
	var b bool
	var i int64
	for _, data := range [][]byte{
		{tagBool}, {tagBool, 2}, {tagBool, 1, 0},
		{tagInt}, {tagInt, 1, 2, 3}, append(MustEncode(int64(1)), 0),
	} {
		if err := Decode(data, &b); err == nil {
			t.Errorf("decode %v into *bool succeeded", data)
		}
		if err := Decode(data, &i); err == nil {
			t.Errorf("decode %v into *int64 succeeded", data)
		}
	}
	if err := Decode([]byte{tagUint, 1}, new(uint)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated uint: got %v, want ErrCorrupt", err)
	}
}

// Scalars never touch gob, so encoding one costs its buffer and decoding one
// costs nothing.
func TestScalarAllocs(t *testing.T) {
	for _, s := range samples() {
		switch s.tag {
		case tagBool, tagInt, tagUint, tagFloat:
		default:
			continue
		}
		v := s.v
		data := MustEncode(v)
		dst := reflect.New(reflect.TypeOf(v)).Interface()
		if n := testing.AllocsPerRun(100, func() { data, _ = Encode(v) }); n > 1 {
			t.Errorf("Encode(%T) allocates %v times, want at most 1", v, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if err := Decode(data, dst); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Decode into %T allocates %v times, want 0", dst, n)
		}
	}
}

// FuzzDecode: no input, well formed or not, makes Decode or DecodeBorrowed
// panic, whatever the destination, and the two agree on every input.
func FuzzDecode(f *testing.F) {
	seeds := [][]byte{oldEncode(f, 42), oldEncode(f, struct{ A, B int }{1, 2})}
	for _, s := range samples() {
		seeds = append(seeds, MustEncode(s.v))
	}
	for _, data := range seeds {
		f.Add(data)
		f.Add(data[:len(data)/2])
		flipped := bytes.Clone(data)
		flipped[len(flipped)-1] ^= 0x80
		f.Add(flipped)
		retagged := bytes.Clone(data)
		retagged[0] ^= 0x07
		f.Add(retagged)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range samples() {
			// The error is the expected outcome for most inputs; the
			// property is that both return, with the same answer.
			_, _ = decodeBoth(t, data, reflect.TypeOf(s.v))
		}
		_, _ = decodeBoth(t, data, reflect.TypeOf(struct{ A, B int }{}))
		_ = Decode(data, nil)
		_ = DecodeBorrowed(data, nil)
	})
}

// BenchmarkDecodeBytes4M prices the consumer's end of a 4 MiB []byte hop:
// Decode allocates and copies the payload, DecodeBorrowed hands out a view.
func BenchmarkDecodeBytes4M(b *testing.B) {
	data := MustEncode(make([]byte, 4<<20))
	for _, c := range []struct {
		name   string
		decode func([]byte, any) error
	}{{"Decode", Decode}, {"DecodeBorrowed", DecodeBorrowed}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var out []byte
			for i := 0; i < b.N; i++ {
				if err := c.decode(data, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
