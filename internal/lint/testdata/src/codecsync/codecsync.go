// Package codecsync seeds violations for the codecsync analyzer golden test.
package codecsync

import "encoding/binary"

// record's codec pair is deliberately out of sync: Size is encoded but never
// decoded, Owner decoded but never encoded, Ghost serialized by neither.
type record struct {
	ID    uint64
	Size  uint64 // want `field record.Size is written by record.marshal but never read back by unmarshalRecord`
	Owner uint64 // want `field record.Owner is read by unmarshalRecord but never written by record.marshal`
	Ghost uint64 // want `field record.Ghost appears in neither`
}

func (r record) marshal() []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf[0:], r.ID)
	binary.LittleEndian.PutUint64(buf[8:], r.Size)
	return buf
}

func unmarshalRecord(b []byte) (record, error) {
	var r record
	r.ID = binary.LittleEndian.Uint64(b[0:])
	r.Owner = binary.LittleEndian.Uint64(b[8:])
	return r, nil
}

// entry's pair is in sync and stays silent.
type entry struct {
	Key uint64
	Val uint64
}

func (e entry) marshal() []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf[0:], e.Key)
	binary.LittleEndian.PutUint64(buf[8:], e.Val)
	return buf
}

func unmarshalEntry(b []byte) (*entry, error) {
	return &entry{
		Key: binary.LittleEndian.Uint64(b[0:]),
		Val: binary.LittleEndian.Uint64(b[8:]),
	}, nil
}

// header/frame: promoted accesses through the embedded field credit the
// embedded field itself, so frame's codec pair is in sync.
type header struct {
	Version uint8
	Flags   uint8
}

type frame struct {
	header
	Payload []byte
}

func (f frame) encode() []byte {
	out := []byte{f.Version, f.Flags}
	return append(out, f.Payload...)
}

func decodeFrame(b []byte) *frame {
	f := &frame{}
	f.Version = b[0]
	f.Flags = b[1]
	f.Payload = append(f.Payload, b[2:]...)
	return f
}

// lopsided embeds the header but only the encoder touches it.
type lopsided struct {
	header // want `field lopsided.header is written by lopsided.encode but never read back by decodeLopsided`
	Body   []byte
}

func (l lopsided) encode() []byte {
	out := []byte{l.Version, l.Flags}
	return append(out, l.Body...)
}

func decodeLopsided(b []byte) *lopsided {
	l := &lopsided{}
	l.Body = append(l.Body, b[2:]...)
	return l
}

// sized splits its encoder: marshal only sizes the buffer, appendTo writes
// the fields. The pair is judged on appendTo, so Width (which marshal alone
// would never mention) is in sync and Pad is still caught.
type sized struct {
	Width uint8
	Pad   uint8 // want `field sized.Pad is read by unmarshalSized but never written by sized.appendTo`
}

func (s sized) marshal() []byte { return s.appendTo(make([]byte, 0, 2)) }

func (s sized) appendTo(dst []byte) []byte { return append(dst, s.Width) }

func unmarshalSized(b []byte) sized { return sized{Width: b[0], Pad: b[1]} }
