package codec

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFloat64RoundTrip(t *testing.T) {
	in := []float64{0, 1.5, -3.25, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	data, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []float64
	if err := Decode(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %v vs %v", in, out)
	}
}

func TestFloat32RoundTrip(t *testing.T) {
	in := []float32{1, -2.5, 0.125}
	var out []float32
	if err := Decode(MustEncode(in), &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatal("float32 round trip mismatch")
	}
}

func TestBytesAndStringRoundTrip(t *testing.T) {
	b, err := decodeBoth(t, MustEncode([]byte{1, 2, 3}), reflect.TypeOf([]byte(nil)))
	if err != nil || !reflect.DeepEqual(b, []byte{1, 2, 3}) {
		t.Fatalf("bytes round trip: %v %v", b, err)
	}
	s, err := decodeBoth(t, MustEncode("hello"), reflect.TypeOf(""))
	if err != nil || s != "hello" {
		t.Fatalf("string round trip: %q %v", s, err)
	}
	empty, err := decodeBoth(t, MustEncode([]byte{}), reflect.TypeOf([]byte(nil)))
	if err != nil || len(empty.([]byte)) != 0 {
		t.Fatal("empty bytes round trip failed")
	}
}

type trajectory struct {
	States  [][]float64
	Rewards []float64
	Length  int
	Done    bool
}

func TestStructRoundTripAsRecord(t *testing.T) {
	in := trajectory{
		States:  [][]float64{{1, 2}, {3, 4}},
		Rewards: []float64{0.5, -1},
		Length:  2,
		Done:    true,
	}
	data := MustEncode(in)
	if data[0] != tagRecord {
		t.Fatalf("trajectory encodes with tag %d, want %d", data[0], tagRecord)
	}
	var out trajectory
	if err := Decode(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("struct round trip mismatch: %+v vs %+v", in, out)
	}
}

func TestScalarRoundTrip(t *testing.T) {
	var i int
	if err := Decode(MustEncode(42), &i); err != nil || i != 42 {
		t.Fatalf("int round trip: %d %v", i, err)
	}
	var f float64
	if err := Decode(MustEncode(2.5), &f); err != nil || f != 2.5 {
		t.Fatalf("float round trip: %v %v", f, err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if err := Decode(nil, &struct{}{}); err == nil {
		t.Fatal("empty payload must fail")
	}
	if err := Decode([]byte{99, 1, 2}, &struct{}{}); err == nil {
		t.Fatal("unknown tag must fail")
	}
	// Wrong destination types.
	var s string
	if err := Decode(MustEncode([]float64{1}), &s); err == nil {
		t.Fatal("type mismatch must fail")
	}
	var f []float64
	if err := Decode(MustEncode("str"), &f); err == nil {
		t.Fatal("type mismatch must fail")
	}
	var f32 []float32
	if err := Decode(MustEncode([]byte("x")), &f32); err == nil {
		t.Fatal("type mismatch must fail")
	}
	var b []byte
	if err := Decode(MustEncode(1.0), &b); err == nil {
		t.Fatal("type mismatch must fail")
	}
	// Corrupt float payloads.
	if err := Decode([]byte{1, 0, 0, 0}, &f); err == nil {
		t.Fatal("corrupt float64 payload must fail")
	}
	if err := Decode([]byte{2, 0, 0, 0, 0, 0}, &f32); err == nil {
		t.Fatal("corrupt float32 payload must fail")
	}
	// Encoding a channel fails via gob.
	if _, err := Encode(make(chan int)); err == nil {
		t.Fatal("encoding a channel must fail")
	}
}

func TestMustEncodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustEncode must panic on unencodable values")
		}
	}()
	MustEncode(make(chan int))
}

// Property: float64 slices round-trip bit-exactly.
func TestFloat64Property(t *testing.T) {
	f := func(vals []float64) bool {
		var out []float64
		if err := Decode(MustEncode(vals), &out); err != nil {
			return false
		}
		if len(out) != len(vals) {
			return false
		}
		for i := range vals {
			if math.Float64bits(vals[i]) != math.Float64bits(out[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
