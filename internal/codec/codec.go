// Package codec serializes Go values into the immutable byte buffers stored
// in the distributed object store. Ray proper uses Apache Arrow; here we use
// encoding/gob (stdlib) behind a small API so applications never touch the
// encoding directly, plus fast paths for the payloads the hot paths move:
// scalars (every empty-task result and most small arguments) and the bulk
// numeric slices of the machine-learning workloads, for which gob's
// per-call encoder set-up and reflection would dominate the cost.
package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
)

// Type tags: the first byte of every payload. Tags are append-only; a tag's
// meaning never changes, so payloads written by an older encoder (which sent
// scalars through gob) still decode.
const (
	tagGob     byte = 0 // gob stream: structs, maps, named types, everything else
	tagFloat64 byte = 1 // []float64, 8 bytes little-endian each
	tagFloat32 byte = 2 // []float32, 4 bytes little-endian each
	tagBytes   byte = 3 // []byte, verbatim
	tagString  byte = 4 // string, verbatim
	tagBool    byte = 5 // bool, one byte 0/1
	tagInt     byte = 6 // int, int8..int64: 8 bytes little-endian two's complement
	tagUint    byte = 7 // uint, uint8..uint64: 8 bytes little-endian
	tagFloat   byte = 8 // float32, float64: 8 bytes little-endian IEEE 754 double
)

// ErrTypeMismatch reports (wrapped) that a payload's tag does not fit the
// destination handed to Decode, or that the value overflows it.
var ErrTypeMismatch = errors.New("codec: destination does not fit payload")

// ErrCorrupt reports (wrapped) input no encoder wrote: an unknown tag, a
// payload whose length contradicts its tag, a record that ends mid-field.
var ErrCorrupt = errors.New("codec: corrupt payload")

func scalar(tag byte, bits uint64) []byte {
	out := make([]byte, 9)
	out[0] = tag
	binary.LittleEndian.PutUint64(out[1:], bits)
	return out
}

// Encode serializes a value. Scalars of the built-in bool, integer and float
// types, []float64, []float32, []byte and string use compact tagged
// encodings; everything else goes through gob.
func Encode(v any) ([]byte, error) {
	switch x := v.(type) {
	case bool:
		out := []byte{tagBool, 0}
		if x {
			out[1] = 1
		}
		return out, nil
	case int:
		return scalar(tagInt, uint64(x)), nil
	case int8:
		return scalar(tagInt, uint64(x)), nil
	case int16:
		return scalar(tagInt, uint64(x)), nil
	case int32:
		return scalar(tagInt, uint64(x)), nil
	case int64:
		return scalar(tagInt, uint64(x)), nil
	case uint:
		return scalar(tagUint, uint64(x)), nil
	case uint8:
		return scalar(tagUint, uint64(x)), nil
	case uint16:
		return scalar(tagUint, uint64(x)), nil
	case uint32:
		return scalar(tagUint, uint64(x)), nil
	case uint64:
		return scalar(tagUint, x), nil
	case float32:
		return scalar(tagFloat, math.Float64bits(float64(x))), nil
	case float64:
		return scalar(tagFloat, math.Float64bits(x)), nil
	case []float64:
		out := make([]byte, 1+8*len(x))
		out[0] = tagFloat64
		for i, f := range x {
			binary.LittleEndian.PutUint64(out[1+8*i:], math.Float64bits(f))
		}
		return out, nil
	case []float32:
		out := make([]byte, 1+4*len(x))
		out[0] = tagFloat32
		for i, f := range x {
			binary.LittleEndian.PutUint32(out[1+4*i:], math.Float32bits(f))
		}
		return out, nil
	case []byte:
		// append does not zero-fill the bytes it is about to overwrite.
		return append([]byte{tagBytes}, x...), nil
	case string:
		return append([]byte{tagString}, x...), nil
	default:
		var buf bytes.Buffer
		buf.WriteByte(tagGob)
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			return nil, fmt.Errorf("codec: encode %T: %w", v, err)
		}
		return buf.Bytes(), nil
	}
}

// MustEncode is Encode for values that cannot fail (slices, numbers, simple
// structs); it panics on error and exists to keep example code readable.
func MustEncode(v any) []byte {
	b, err := Encode(v)
	if err != nil {
		panic(err)
	}
	return b
}

func mismatch(payload string, out any) error {
	return fmt.Errorf("%w: payload is %s, destination is %T", ErrTypeMismatch, payload, out)
}

// storeInt assigns v to *p, refusing values the destination kind cannot hold
// (the same rule gob applies when integer widths differ).
func storeInt[T int | int8 | int16 | int32 | int64](p *T, v int64) error {
	if int64(T(v)) != v {
		return fmt.Errorf("%w: %d overflows %T", ErrTypeMismatch, v, *p)
	}
	*p = T(v)
	return nil
}

func storeUint[T uint | uint8 | uint16 | uint32 | uint64](p *T, v uint64) error {
	if uint64(T(v)) != v {
		return fmt.Errorf("%w: %d overflows %T", ErrTypeMismatch, v, *p)
	}
	*p = T(v)
	return nil
}

// Decode deserializes data produced by Encode into out, which must be a
// pointer to a value of the encoded type. A scalar decodes into any
// destination of its kind (signed, unsigned, float) wide enough to hold it,
// as with gob. A destination of the wrong type yields an error wrapping
// ErrTypeMismatch; a truncated or oversized payload one wrapping ErrCorrupt.
// The decoded value shares no memory with data: it is the caller's own.
func Decode(data []byte, out any) error { return decode(data, out, false) }

// DecodeBorrowed is Decode, except that a []byte destination is a view of
// data (cap == len, so an append reallocates instead of growing into it), not
// a copy of it. The view is read-only and pins nothing: it stays valid for
// as long as it is held because the object store never reuses a payload
// buffer. Every other destination decodes exactly as with Decode — numeric
// slices included: the payload sits at offset 1 of data, and numeric code
// updates what it decoded in place.
func DecodeBorrowed(data []byte, out any) error { return decode(data, out, true) }

func decode(data []byte, out any, borrow bool) error {
	if len(data) == 0 {
		return fmt.Errorf("%w: empty", ErrCorrupt)
	}
	tag, payload := data[0], data[1:]
	switch tag {
	case tagBool:
		p, ok := out.(*bool)
		if !ok {
			return mismatch("bool", out)
		}
		if len(payload) != 1 || payload[0] > 1 {
			return fmt.Errorf("%w: bool", ErrCorrupt)
		}
		*p = payload[0] == 1
		return nil
	case tagInt, tagUint, tagFloat:
		if len(payload) != 8 {
			return fmt.Errorf("%w: scalar of %d bytes", ErrCorrupt, len(payload))
		}
		return decodeScalar(tag, binary.LittleEndian.Uint64(payload), out)
	case tagFloat64:
		p, ok := out.(*[]float64)
		if !ok {
			return mismatch("[]float64", out)
		}
		if len(payload)%8 != 0 {
			return fmt.Errorf("%w: []float64 of %d bytes", ErrCorrupt, len(payload))
		}
		vals := make([]float64, len(payload)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
		*p = vals
		return nil
	case tagFloat32:
		p, ok := out.(*[]float32)
		if !ok {
			return mismatch("[]float32", out)
		}
		if len(payload)%4 != 0 {
			return fmt.Errorf("%w: []float32 of %d bytes", ErrCorrupt, len(payload))
		}
		vals := make([]float32, len(payload)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(payload[4*i:]))
		}
		*p = vals
		return nil
	case tagBytes:
		p, ok := out.(*[]byte)
		if !ok {
			return mismatch("[]byte", out)
		}
		if borrow && len(payload) > 0 {
			*p = payload[:len(payload):len(payload)]
			return nil
		}
		*p = append([]byte(nil), payload...)
		return nil
	case tagString:
		p, ok := out.(*string)
		if !ok {
			return mismatch("string", out)
		}
		*p = string(payload)
		return nil
	case tagGob:
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(out); err != nil {
			return fmt.Errorf("codec: decode into %T: %w", out, err)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown type tag %d", ErrCorrupt, tag)
	}
}

func decodeScalar(tag byte, bits uint64, out any) error {
	switch tag {
	case tagInt:
		v := int64(bits)
		switch p := out.(type) {
		case *int:
			return storeInt(p, v)
		case *int8:
			return storeInt(p, v)
		case *int16:
			return storeInt(p, v)
		case *int32:
			return storeInt(p, v)
		case *int64:
			return storeInt(p, v)
		}
		return mismatch("a signed integer", out)
	case tagUint:
		switch p := out.(type) {
		case *uint:
			return storeUint(p, bits)
		case *uint8:
			return storeUint(p, bits)
		case *uint16:
			return storeUint(p, bits)
		case *uint32:
			return storeUint(p, bits)
		case *uint64:
			return storeUint(p, bits)
		}
		return mismatch("an unsigned integer", out)
	default:
		v := math.Float64frombits(bits)
		switch p := out.(type) {
		case *float64:
			*p = v
			return nil
		case *float32:
			if a := math.Abs(v); a > math.MaxFloat32 && !math.IsInf(v, 0) {
				return fmt.Errorf("%w: %g overflows float32", ErrTypeMismatch, v)
			}
			*p = float32(v)
			return nil
		}
		return mismatch("a float", out)
	}
}
