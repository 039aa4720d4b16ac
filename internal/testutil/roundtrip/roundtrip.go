// Package roundtrip tests a hand-written encoder/decoder pair against every
// field of the type it encodes. The value is built by reflection, so a field
// added to the type is filled, encoded and compared without the test being
// touched: a field that one side of the codec forgets comes back different,
// and a type the filler cannot fill fails loudly instead of being skipped.
package roundtrip

import (
	"fmt"
	"reflect"
	"testing"

	"ray/internal/codec"
)

// Check fills a T, encodes and decodes it, and fails t for every field of T
// that does not come back reflect.DeepEqual to what went in.
//
// The filler sets every field reachable from T to a non-zero value that the
// repository's wire formats carry exactly: integers count up from 1 (staying
// below 128, so every width holds them), floats are n+0.25 (exact in
// thousandths), strings are distinct, slices and maps get one filled
// element, pointers a filled target. A value whose type matches one of the
// presets is copied from it instead; that is for types whose valid values are
// constrained, such as a tagged union or a struct with unexported fields.
// Check fails t on a field the filler cannot fill or leaves zero.
func Check[T any](t testing.TB, encode func(*T) []byte, decode func([]byte) (*T, error), presets ...any) {
	t.Helper()
	f := filler{t: t, presets: make(map[reflect.Type]reflect.Value, len(presets))}
	for _, p := range presets {
		f.presets[reflect.TypeOf(p)] = reflect.ValueOf(p)
	}
	var in T
	f.fill(reflect.ValueOf(&in).Elem(), reflect.TypeOf(in).Name())
	out, err := decode(encode(&in))
	if err != nil {
		t.Fatalf("decoding a filled %T: %v", in, err)
	}
	want, got := reflect.ValueOf(in), reflect.ValueOf(*out)
	for i := 0; i < want.NumField(); i++ {
		if !reflect.DeepEqual(want.Field(i).Interface(), got.Field(i).Interface()) {
			t.Errorf("%T.%s did not survive the round trip: got %+v, want %+v",
				in, want.Type().Field(i).Name, reflect.Indirect(got.Field(i)), reflect.Indirect(want.Field(i)))
		}
	}
}

// CheckRecord is Check for the value codec: it also fails t if
// codec.Encode writes a T as a gob stream (tag 0) instead of a record, so a
// type the runtime sends cannot fall back to gob unnoticed.
func CheckRecord[T any](t testing.TB) {
	t.Helper()
	encode := func(v *T) []byte {
		data := codec.MustEncode(*v)
		if data[0] == 0 {
			t.Errorf("%T travels as a gob stream, not a record", *v)
		}
		return data
	}
	Check(t, encode, func(data []byte) (*T, error) {
		var v T
		return &v, codec.Decode(data, &v)
	})
}

type filler struct {
	t       testing.TB
	presets map[reflect.Type]reflect.Value
	n       int
}

func (f *filler) fill(v reflect.Value, path string) {
	f.t.Helper()
	f.n++
	n := 1 + f.n%127
	if p, ok := f.presets[v.Type()]; ok {
		v.Set(p)
	} else {
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(int64(n))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			v.SetUint(uint64(n))
		case reflect.Float32, reflect.Float64:
			v.SetFloat(float64(n) + 0.25)
		case reflect.String:
			v.SetString(fmt.Sprintf("%s=%d", path, n))
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				f.fill(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
			f.fill(v.Index(0), path+"[0]")
		case reflect.Map:
			key, elem := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			f.fill(key, path+".key")
			f.fill(elem, path+".value")
			v.Set(reflect.MakeMap(v.Type()))
			v.SetMapIndex(key, elem)
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
			f.fill(v.Elem(), path)
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				field := v.Type().Field(i)
				if !field.IsExported() {
					f.t.Fatalf("%s.%s is unexported: pass a preset %s", path, field.Name, v.Type())
				}
				f.fill(v.Field(i), path+"."+field.Name)
			}
		default:
			f.t.Fatalf("%s: cannot fill a %s; pass a preset", path, v.Kind())
		}
	}
	if v.IsZero() {
		f.t.Errorf("%s is still zero after filling", path)
	}
}
