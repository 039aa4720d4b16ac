package codec

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"ray/internal/nn"
)

// flatRecord has the shape of a typical small result: an actor's ack.
type flatRecord struct {
	Calls int64
	Sum   uint64
}

// vector and blob are named slices, like nn.Vector.
type (
	vector []float64
	blob   []byte
)

type nestedRecord struct {
	ID    [16]byte
	Inner flatRecord
	Pair  [2]flatRecord
	Ratio float32
	OK    bool
}

type sliceRecord struct {
	Name   string
	Seeds  []int64
	States [][]float64
	Params vector
	Tags   []string
	Blob   []byte
	Acks   []flatRecord
}

// everyKind returns one record holding every tagged kind of samples() at its
// extremes three times over: as a field, as a two-element slice and as a
// one-element array.
func everyKind() any {
	var fields []reflect.StructField
	var vals []reflect.Value
	for _, s := range samples() {
		v := reflect.ValueOf(s.v)
		arr := reflect.New(reflect.ArrayOf(1, v.Type())).Elem()
		arr.Index(0).Set(v)
		for _, f := range []reflect.Value{v, reflect.Append(reflect.MakeSlice(reflect.SliceOf(v.Type()), 0, 2), v, v), arr} {
			fields = append(fields, reflect.StructField{Name: fmt.Sprintf("F%d", len(fields)), Type: f.Type()})
			vals = append(vals, f)
		}
	}
	rec := reflect.New(reflect.StructOf(fields)).Elem()
	for i, v := range vals {
		rec.Field(i).Set(v)
	}
	return rec.Interface()
}

// recordSamples covers the record shapes: flat, nested, slices and strings,
// empty and nil slices, and the top-level slices and arrays.
func recordSamples() []any {
	return []any{
		flatRecord{Calls: math.MinInt64, Sum: math.MaxUint64},
		nestedRecord{
			ID:    [16]byte{1, 15: 0xFF},
			Inner: flatRecord{Calls: 1, Sum: 2},
			Pair:  [2]flatRecord{{Calls: 3, Sum: 4}, {Calls: -5, Sum: 6}},
			Ratio: float32(math.Inf(-1)),
			OK:    true,
		},
		sliceRecord{
			Name:   "héllo\x00",
			Seeds:  []int64{-1, math.MaxInt64},
			States: [][]float64{{math.NaN(), math.Copysign(0, -1)}, nil, {}},
			Params: vector{1.5},
			Tags:   []string{"", "a"},
			Blob:   []byte{0, 255},
			Acks:   []flatRecord{{Calls: 7, Sum: 8}},
		},
		sliceRecord{},
		sliceRecord{Seeds: []int64{}, States: [][]float64{}, Params: vector{}, Tags: []string{}, Blob: []byte{}, Acks: []flatRecord{}},
		trajectory{States: [][]float64{{1, 2}}, Rewards: []float64{-1}, Length: 1, Done: true},
		[]int64{math.MinInt64, 0, math.MaxInt64},
		vector{math.Copysign(0, -1), math.NaN()},
		blob{1, 2, 3},
		[16]byte{1, 2, 3, 15: 9},
		[][]float64{{1}, {}, {2, 3}},
		everyKind(),
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, v := range recordSamples() {
		data, err := Encode(v)
		if err != nil {
			t.Fatalf("encode %T: %v", v, err)
		}
		if data[0] != tagRecord {
			t.Errorf("%T encodes with tag %d, want %d", v, data[0], tagRecord)
		}
		got, err := decodeBoth(t, data, reflect.TypeOf(v))
		if err != nil {
			t.Fatalf("decode %T: %v", v, err)
		}
		if !same(got, v) {
			t.Errorf("%T round trip:\n got %+v\nwant %+v", v, got, v)
		}
	}
	// A named slice is its shape: it decodes into the unnamed type too.
	var floats []float64
	if err := Decode(MustEncode(vector{2.5}), &floats); err != nil || len(floats) != 1 || floats[0] != 2.5 {
		t.Errorf("vector into []float64: %v %v", floats, err)
	}
	// Empty and nil slices both decode as nil, and every field of a used
	// destination is overwritten.
	for _, in := range recordSamples()[3:5] {
		out := sliceRecord{Name: "stale", Seeds: []int64{1}, Blob: []byte{1}}
		if err := Decode(MustEncode(in), &out); err != nil || !reflect.DeepEqual(out, sliceRecord{}) {
			t.Errorf("decode %+v over a used destination: got %+v, %v", in, out, err)
		}
	}
}

// Same shape with one field renamed, reordered or resized, other records,
// scalars and non-pointers: a record decodes only into its own shape.
func TestRecordWrongDestinationIsTypeMismatch(t *testing.T) {
	type renamed struct {
		Calls int64
		Total uint64
	}
	type reordered struct {
		Sum   uint64
		Calls int64
	}
	type narrowed struct {
		Calls int64
		Sum   uint32
	}
	flat := MustEncode(flatRecord{Calls: 1, Sum: 2})
	for _, dst := range []any{
		&renamed{}, &reordered{}, &narrowed{}, &nestedRecord{}, new([2]int64), new([]uint64),
		new(map[string]int64), new(*flatRecord), new(any), flatRecord{}, (*flatRecord)(nil), nil,
	} {
		if err := Decode(flat, dst); !errors.Is(err, ErrTypeMismatch) {
			t.Errorf("flatRecord into %T: got %v, want ErrTypeMismatch", dst, err)
		}
	}
	for _, s := range samples() {
		if err := Decode(MustEncode(s.v), &flatRecord{}); !errors.Is(err, ErrTypeMismatch) {
			t.Errorf("%T payload into *flatRecord: got %v, want ErrTypeMismatch", s.v, err)
		}
		dst := reflect.New(reflect.TypeOf(s.v)).Interface()
		if err := Decode(flat, dst); !errors.Is(err, ErrTypeMismatch) {
			t.Errorf("flatRecord into %T: got %v, want ErrTypeMismatch", dst, err)
		}
	}
	recs := recordSamples()
	for _, a := range recs {
		for _, b := range recs {
			if reflect.TypeOf(a) == reflect.TypeOf(b) {
				continue
			}
			dst := reflect.New(reflect.TypeOf(b)).Interface()
			if err := Decode(MustEncode(a), dst); !errors.Is(err, ErrTypeMismatch) {
				t.Errorf("%T into %T: got %v, want ErrTypeMismatch", a, dst, err)
			}
		}
	}
}

func TestOldGobStructPayloadsStillDecode(t *testing.T) {
	// gob sends no field equal to zero, so a -0 field comes back +0: the
	// every-kind record, which has one, is left out.
	recs := recordSamples()
	for _, v := range recs[:len(recs)-1] {
		got, err := decodeBoth(t, oldEncode(t, v), reflect.TypeOf(v))
		if err != nil {
			t.Fatalf("decode gob-tagged %T: %v", v, err)
		}
		if !same(got, v) {
			t.Errorf("gob-tagged %T:\n got %+v\nwant %+v", v, got, v)
		}
	}
}

// Truncation anywhere, a trailing byte, a count the payload cannot back
// and a bool that is neither 0 nor 1 are ErrCorrupt.
func TestCorruptRecordPayloads(t *testing.T) {
	for _, v := range recordSamples() {
		data, dt := MustEncode(v), reflect.TypeOf(v)
		for cut := 1; cut < len(data); cut++ {
			if _, err := decodeBoth(t, data[:cut], dt); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%T cut to %d of %d bytes: got %v, want ErrCorrupt", v, cut, len(data), err)
			}
		}
		if _, err := decodeBoth(t, append(bytes.Clone(data), 0), dt); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%T with a trailing byte: got %v, want ErrCorrupt", v, err)
		}
	}
	empty := MustEncode(sliceRecord{})
	for _, off := range []int{9, 13, 17} { // the Name, Seeds and States counts
		data := bytes.Clone(empty)
		le.PutUint32(data[off:], math.MaxUint32)
		if err := Decode(data, new(sliceRecord)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("count of 2^32-1 at offset %d: got %v, want ErrCorrupt", off, err)
		}
	}
	nested := MustEncode(recordSamples()[1])
	nested[len(nested)-1] = 2
	if err := Decode(nested, new(nestedRecord)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bool byte 2: got %v, want ErrCorrupt", err)
	}
}

type selfMarshalled struct{ N int }

func (s selfMarshalled) MarshalBinary() ([]byte, error) { return []byte{byte(s.N)}, nil }

func (s *selfMarshalled) UnmarshalBinary(b []byte) error {
	s.N = int(b[0])
	return nil
}

// What a record cannot express stays on gob and round-trips as before.
func TestNonRecordsStayOnGob(t *testing.T) {
	type tree struct{ Kids []tree }
	n := 7
	for _, v := range []any{
		struct{ M map[string]int }{M: map[string]int{"a": 1}},
		struct{ P *int }{P: &n},
		struct{ V any }{V: "x"},
		struct{ A [0]int }{},
		struct{ C complex128 }{C: 1i},
		struct{ U uintptr }{U: 9},
		struct{ T time.Time }{T: time.Unix(1, 2).UTC()},
		struct{ S selfMarshalled }{S: selfMarshalled{N: 3}},
		selfMarshalled{N: 4},
		tree{Kids: []tree{{}}},
		[]*int{&n},
		map[string]int64{"b": 2},
	} {
		data, err := Encode(v)
		if err != nil {
			t.Fatalf("encode %T: %v", v, err)
		}
		if data[0] != tagGob {
			t.Errorf("%T encodes with tag %d, want gob (%d)", v, data[0], tagGob)
		}
		out := reflect.New(reflect.TypeOf(v))
		if err := Decode(data, out.Interface()); err != nil || !reflect.DeepEqual(out.Elem().Interface(), v) {
			t.Errorf("%T round trip: got %+v, %v", v, out.Elem(), err)
		}
	}
}

// The runtime's own seeds and parameter vectors travel as records; the
// structs it sends are pinned beside their types (worker, ppo, es).
func TestRuntimeSlicesAreNotGob(t *testing.T) {
	for _, v := range []any{[]int64{1, 2}, nn.Vector{0.5}} {
		if tag := MustEncode(v)[0]; tag == tagGob {
			t.Errorf("%T travels as a gob stream", v)
		}
	}
}

// A flat record costs its buffer (and the boxing of the value into Encode's
// argument) to encode, and nothing to decode.
func TestRecordAllocs(t *testing.T) {
	v := flatRecord{Calls: 3, Sum: 4}
	data := MustEncode(v)
	var out flatRecord
	if n := testing.AllocsPerRun(100, func() { data, _ = Encode(v) }); n > 2 {
		t.Errorf("Encode(flatRecord) allocates %v times, want at most 2", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := Decode(data, &out); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Decode into *flatRecord allocates %v times, want at most 1", n)
	}
}

// BenchmarkDecodeRecord prices decoding a two-field result as a record and
// as the gob stream it used to be.
func BenchmarkDecodeRecord(b *testing.B) {
	v := flatRecord{Calls: 3, Sum: 4}
	for _, c := range []struct {
		name string
		data []byte
	}{{"record", MustEncode(v)}, {"gob", oldEncode(b, v)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var out flatRecord
			for b.Loop() {
				if err := Decode(c.data, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
