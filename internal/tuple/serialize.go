package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
)

// Field type tags used by the binary encoding.
const (
	tagInt64 byte = iota + 1
	tagFloat64
	tagString
	tagBytes
	tagBool
)

// ErrTruncated is returned when a buffer ends before a complete value.
var ErrTruncated = fmt.Errorf("tuple: truncated buffer")

// Encoder serializes tuples and message envelopes into reusable scratch
// buffers. It is not safe for concurrent use; each executor owns one, and
// transient users borrow one from the pool via AcquireEncoder.
type Encoder struct {
	buf []byte
	aux []byte // nested-payload scratch for EncodeControlEnvelope
}

// NewEncoder returns an encoder with an initial buffer capacity.
func NewEncoder() *Encoder { return &Encoder{buf: make([]byte, 0, 256)} }

// EncodeTuple serializes t and returns the encoded bytes. The returned slice
// aliases the encoder's internal buffer and is only valid until the next
// call; callers that need to keep it must copy.
func (e *Encoder) EncodeTuple(t *Tuple) ([]byte, error) {
	e.buf = e.buf[:0]
	var err error
	e.buf, err = AppendTuple(e.buf, t)
	return e.buf, err
}

// AppendTuple appends the binary encoding of t to dst and returns the
// extended slice.
//
// Layout (all integers little-endian):
//
//	u16 len(stream) | stream bytes
//	i64 id | i32 srcTask | i64 rootEmitNS | i64 rootID | i64 ackVal | i64 traceID
//	i64 epoch | u16 nfields | nfields * (tag u8, value)
//
//whale:hotpath
func AppendTuple(dst []byte, t *Tuple) ([]byte, error) {
	dst = appendU16(dst, uint16(len(t.Stream)))
	dst = append(dst, t.Stream...)
	dst = appendU64(dst, uint64(t.ID))
	dst = appendU32(dst, uint32(t.SrcTask))
	dst = appendU64(dst, uint64(t.RootEmitNS))
	dst = appendU64(dst, uint64(t.RootID))
	dst = appendU64(dst, uint64(t.AckVal))
	dst = appendU64(dst, uint64(t.TraceID))
	dst = appendU64(dst, uint64(t.Epoch))
	if w := t.wireFields(); w != nil {
		return append(dst, w...), nil
	}
	dst = appendU16(dst, uint16(len(t.Values)))
	for _, v := range t.Values {
		var err error
		dst, err = appendValue(dst, v)
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

//whale:hotpath
func appendValue(dst []byte, v Value) ([]byte, error) {
	switch x := v.(type) {
	case int64:
		dst = append(dst, tagInt64)
		dst = appendU64(dst, uint64(x))
	case float64:
		dst = append(dst, tagFloat64)
		dst = appendU64(dst, math.Float64bits(x))
	case string:
		dst = append(dst, tagString)
		dst = appendU32(dst, uint32(len(x)))
		dst = append(dst, x...)
	case []byte:
		dst = append(dst, tagBytes)
		dst = appendU32(dst, uint32(len(x)))
		dst = append(dst, x...)
	case bool:
		dst = append(dst, tagBool)
		if x {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	default:
		return dst, fmt.Errorf("tuple: unsupported field type %T", v)
	}
	return dst, nil
}

// decoded is the one allocation DecodeTuple makes, and one entry of a
// Slab's decoded block: the tuple together with the slice header its wire
// field points at.
type decoded struct {
	Tuple
	fields []byte
}

// DecodeTuple parses one tuple from buf, returning the tuple and the number
// of bytes consumed. Every field is validated here, but none is boxed: the
// tuple keeps its field section as a sub-slice of buf and the accessors read
// it in place, so the tuple aliases buf for its whole life — the caller must
// not recycle buf while the decoded tuple is live (see DESIGN §11:
// receive-path buffers transfer to the receiver and are never reused, which
// makes the alias free). The stream name comes from a small intern table,
// so a decode allocates only the tuple; Slab.Decode takes even that from a
// slab.
//
//whale:hotpath
func DecodeTuple(buf []byte) (*Tuple, int, error) {
	t, fields, n, err := decodeTuple(buf)
	if err != nil {
		return nil, 0, err
	}
	d := &decoded{Tuple: t, fields: fields}
	d.wire = &d.fields
	return &d.Tuple, n, nil
}

// decodeTuple is the validating body DecodeTuple and Slab.Decode share. It
// returns the tuple's header fields, its encoded field section (a sub-slice
// of buf) and the number of bytes consumed.
//
//whale:hotpath
func decodeTuple(buf []byte) (t Tuple, fields []byte, n int, err error) {
	off := 0
	slen, off, err := readU16(buf, off)
	if err != nil {
		return t, nil, 0, err
	}
	if off+int(slen) > len(buf) {
		return t, nil, 0, ErrTruncated
	}
	stream := buf[off : off+int(slen)]
	off += int(slen)
	id, off, err := readU64(buf, off)
	if err != nil {
		return t, nil, 0, err
	}
	t.ID = int64(id)
	src, off, err := readU32(buf, off)
	if err != nil {
		return t, nil, 0, err
	}
	t.SrcTask = int32(src)
	emit, off, err := readU64(buf, off)
	if err != nil {
		return t, nil, 0, err
	}
	t.RootEmitNS = int64(emit)
	root, off, err := readU64(buf, off)
	if err != nil {
		return t, nil, 0, err
	}
	t.RootID = int64(root)
	av, off, err := readU64(buf, off)
	if err != nil {
		return t, nil, 0, err
	}
	t.AckVal = int64(av)
	tid, off, err := readU64(buf, off)
	if err != nil {
		return t, nil, 0, err
	}
	t.TraceID = int64(tid)
	ep, off, err := readU64(buf, off)
	if err != nil {
		return t, nil, 0, err
	}
	t.Epoch = int64(ep)
	fieldsAt := off
	nf, off, err := readU16(buf, off)
	if err != nil {
		return t, nil, 0, err
	}
	for i := 0; i < int(nf); i++ {
		if off, err = checkValue(buf, off); err != nil {
			return t, nil, 0, err
		}
	}
	t.Stream = internStream(stream)
	return t, buf[fieldsAt:off], off, nil
}

// checkValue validates the field at buf[off:] and returns the offset just
// past it. The accessors read validated fields without checking again.
//
//whale:hotpath
func checkValue(buf []byte, off int) (int, error) {
	if off >= len(buf) {
		return off, ErrTruncated
	}
	tag := buf[off]
	off++
	switch tag {
	case tagInt64, tagFloat64:
		_, off, err := readU64(buf, off)
		return off, err
	case tagString, tagBytes:
		n, off, err := readU32(buf, off)
		if err != nil {
			return off, err
		}
		if off+int(n) > len(buf) {
			return off, ErrTruncated
		}
		return off + int(n), nil
	case tagBool:
		if off >= len(buf) {
			return off, ErrTruncated
		}
		// Strict: only the two bytes the encoder emits are valid. Accepting
		// arbitrary nonzero bytes as false made corrupt frames decode
		// silently instead of failing (found by FuzzDecodeTuple).
		if b := buf[off]; b > 1 {
			return off, fmt.Errorf("tuple: invalid bool encoding %d", b)
		}
		return off + 1, nil
	default:
		return off, fmt.Errorf("tuple: unknown field tag %d", tag)
	}
}

// valueSpan returns where the value bytes of the validated field at w[off]
// start and end; the next field starts at end. The value bytes are a
// number's eight little-endian bytes, a string's or []byte's payload, or a
// bool's one byte.
func valueSpan(w []byte, off int) (start, end int) {
	switch w[off] {
	case tagString, tagBytes:
		start = off + 5
		return start, start + int(binary.LittleEndian.Uint32(w[off+1:]))
	case tagBool:
		return off + 1, off + 2
	}
	return off + 1, off + 9
}

// fieldAt returns the tag and value bytes of field i of a validated field
// section, walking the fields before it. It panics when there is no field i.
func fieldAt(w []byte, i int) (byte, []byte) {
	if n := int(binary.LittleEndian.Uint16(w)); uint(i) >= uint(n) {
		panic(fmt.Sprintf("tuple: field %d of a %d-field tuple", i, n))
	}
	off := 2
	for ; i > 0; i-- {
		_, off = valueSpan(w, off)
	}
	start, end := valueSpan(w, off)
	return w[off], w[start:end]
}

// fieldOf is fieldAt for a field that must have the tag want: like the type
// assertion on a constructed tuple, it panics when the field has another.
func fieldOf(w []byte, i int, want byte) []byte {
	tag, b := fieldAt(w, i)
	if tag != want {
		panic(fmt.Sprintf("tuple: field %d is %s, not %s", i, tagNames[tag], tagNames[want]))
	}
	return b
}

var tagNames = [...]string{tagInt64: "int64", tagFloat64: "float64", tagString: "string", tagBytes: "[]byte", tagBool: "bool"}

// Decoded stream names are interned so a decode does not allocate one. The
// table is copy-on-write behind an atomic pointer: a lookup is one atomic
// load and one map read (m[string(b)] does not allocate), and only a name
// seen for the first time pays a copy. It holds at most maxInterned names
// of at most maxInternedLen bytes; when it is full it starts over, so a
// stream of junk names costs allocations, never memory.
var streamNames atomic.Pointer[map[string]string]

const (
	maxInterned    = 256
	maxInternedLen = 128
)

func internStream(b []byte) string {
	if m := streamNames.Load(); m != nil {
		if s, ok := (*m)[string(b)]; ok {
			return s
		}
	}
	s := string(b)
	if len(s) > maxInternedLen {
		return s
	}
	for {
		old := streamNames.Load()
		next := map[string]string{s: s}
		if old != nil && len(*old) < maxInterned {
			for k, v := range *old {
				next[k] = v
			}
		}
		if streamNames.CompareAndSwap(old, &next) {
			return s
		}
	}
}

// PeekTraceID reads the trace ID straight out of an encoded tuple without
// decoding it (the id sits at a fixed offset past the variable-length
// stream name). It returns 0 — untraced — for buffers too short to hold
// the header; the caller is expected to decode (and fail) anyway. Stall
// instrumentation on the send path uses this to attribute queue residency
// to sampled traces without paying a full decode per queued item.
//
//whale:hotpath
func PeekTraceID(buf []byte) int64 {
	if len(buf) < 2 {
		return 0
	}
	off := 2 + int(binary.LittleEndian.Uint16(buf)) + 8 + 4 + 8 + 8 + 8
	if off+8 > len(buf) {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(buf[off:]))
}

// EncodedSize returns the exact number of bytes AppendTuple would produce,
// without encoding. The simulated cluster uses it to derive message sizes.
//
//whale:hotpath
func EncodedSize(t *Tuple) int {
	n := 2 + len(t.Stream) + 8 + 4 + 8 + 8 + 8 + 8 + 8
	if w := t.wireFields(); w != nil {
		return n + len(w)
	}
	n += 2
	for _, v := range t.Values {
		switch x := v.(type) {
		case int64, float64:
			n += 1 + 8
		case string:
			n += 1 + 4 + len(x)
		case []byte:
			n += 1 + 4 + len(x)
		case bool:
			n += 1 + 1
		}
	}
	return n
}

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v), byte(v>>8))
}

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func readU16(buf []byte, off int) (uint16, int, error) {
	if off+2 > len(buf) {
		return 0, off, ErrTruncated
	}
	return binary.LittleEndian.Uint16(buf[off:]), off + 2, nil
}

func readU32(buf []byte, off int) (uint32, int, error) {
	if off+4 > len(buf) {
		return 0, off, ErrTruncated
	}
	return binary.LittleEndian.Uint32(buf[off:]), off + 4, nil
}

func readU64(buf []byte, off int) (uint64, int, error) {
	if off+8 > len(buf) {
		return 0, off, ErrTruncated
	}
	return binary.LittleEndian.Uint64(buf[off:]), off + 8, nil
}
