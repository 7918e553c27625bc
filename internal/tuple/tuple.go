// Package tuple defines the data model of the stream processing engine: the
// Tuple carried between operator instances, the BatchTuple / WorkerMessage
// formats introduced by Whale's worker-oriented communication (paper §3.5,
// Figs. 9-10), and the control-plane messages used by the dynamic switching
// mechanism (paper §3.4).
//
// A Tuple is a small, flat record: a list of typed field values plus routing
// metadata. The binary encoding implemented in serialize.go is the unit whose
// cost the paper calls "serialization time" (t_s); it is deliberately a real
// encoder (not a stub) so the live runtime pays a realistic, measurable CPU
// cost per encode.
//
// A tuple has one of two forms. A producer builds one by setting Values. A
// tuple that arrived over the wire keeps its fields as the validated bytes
// it was decoded from, and Values is nil: the local instances a worker
// delivers it to share one undecoded payload, and decoding boxes nothing.
// Read fields through the accessors (Int, Float, StringAt, Bytes, Bool, Len,
// Field, Fields), which serve both forms. Reading Values outside this
// package is a bug on any tuple that may have been received; `make
// values-gate` rejects it in non-test code.
package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Value is one field of a tuple. Supported dynamic types are:
// int64, float64, string, []byte, and bool.
type Value = any

// Tuple is the unit of data flowing through a topology.
type Tuple struct {
	// Stream is the logical stream the tuple belongs to (usually the id of
	// the operator that emitted it).
	Stream string
	// Values holds the fields of a constructed tuple: set it to build one.
	// It is nil on a decoded tuple, whose fields stay in its wire bytes, so
	// read fields through the accessors, never through Values. Setting
	// Values on a decoded tuple replaces its fields.
	Values []Value
	// wire points at the encoded field section (u16 count, then the fields)
	// of a decoded tuple, inside the allocation that holds the tuple; nil
	// for a constructed tuple. The bytes alias the receive buffer.
	wire *[]byte
	// ID is a source-assigned sequence number, unique per producing task.
	ID int64
	// SrcTask is the task id of the producing instance.
	SrcTask int32
	// RootEmitNS is the timestamp (engine clock, nanoseconds) at which the
	// tuple's root ancestor left its spout. It is propagated through the
	// topology so sinks can compute the full processing latency.
	RootEmitNS int64
	// RootID identifies the reliability tree this tuple belongs to (the
	// Storm "anchor"); zero means the tuple is untracked.
	RootID int64
	// AckVal is this tuple's random contribution to the ack XOR register.
	AckVal int64
	// TraceID identifies the sampled tuple-path trace this tuple belongs
	// to; zero means the tuple is untraced. It is assigned at the spout by
	// the observability layer's sampler and inherited by every descendant,
	// so one trace spans serialize, tree hops, RDMA slices, dispatch and
	// execute across workers.
	TraceID int64
	// Epoch is the checkpoint epoch the tuple was emitted in: every tuple a
	// task emits after processing (or injecting) the barrier for epoch N is
	// stamped N+1. Zero means checkpointing is off (or the tuple predates
	// the first barrier) and the tuple is never fenced. Barrier frames
	// themselves travel as data-plane tuples on StreamBarrier with Epoch set
	// to the epoch they conclude, keeping per-link FIFO with the data ahead
	// of them.
	Epoch int64
}

// Clone returns a shallow copy of t with its own Values slice. Field values
// themselves are immutable by convention ([]byte fields must not be mutated
// by receivers), so sharing them is safe; so is sharing a decoded tuple's
// wire bytes.
func (t *Tuple) Clone() *Tuple {
	cp := *t
	cp.Values = append([]Value(nil), t.Values...)
	return &cp
}

// wireFields returns the encoded field section a decoded tuple reads its
// fields from, or nil when the fields are in Values.
func (t *Tuple) wireFields() []byte {
	if t.wire == nil || t.Values != nil {
		return nil
	}
	return *t.wire
}

// Len returns the number of fields.
func (t *Tuple) Len() int {
	if w := t.wireFields(); w != nil {
		return int(binary.LittleEndian.Uint16(w))
	}
	return len(t.Values)
}

// Int returns field i as an int64. It panics if the field has another type
// or does not exist; operator code is expected to know its schema.
func (t *Tuple) Int(i int) int64 {
	if w := t.wireFields(); w != nil {
		return int64(binary.LittleEndian.Uint64(fieldOf(w, i, tagInt64)))
	}
	return t.Values[i].(int64)
}

// Float returns field i as a float64.
func (t *Tuple) Float(i int) float64 {
	if w := t.wireFields(); w != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(fieldOf(w, i, tagFloat64)))
	}
	return t.Values[i].(float64)
}

// StringAt returns field i as a string. On a decoded tuple the string is a
// copy, so keeping it does not pin the receive buffer.
func (t *Tuple) StringAt(i int) string {
	if w := t.wireFields(); w != nil {
		return string(fieldOf(w, i, tagString))
	}
	return t.Values[i].(string)
}

// Bytes returns field i as a []byte. On a decoded tuple it aliases the
// receive buffer; receivers must not mutate it.
func (t *Tuple) Bytes(i int) []byte {
	if w := t.wireFields(); w != nil {
		b := fieldOf(w, i, tagBytes)
		return b[:len(b):len(b)]
	}
	return t.Values[i].([]byte)
}

// Bool returns field i as a bool.
func (t *Tuple) Bool(i int) bool {
	if w := t.wireFields(); w != nil {
		return fieldOf(w, i, tagBool)[0] == 1
	}
	return t.Values[i].(bool)
}

// Field returns field i boxed, as the producer set it. On a decoded tuple
// this allocates for most values; prefer the typed accessors.
func (t *Tuple) Field(i int) Value {
	w := t.wireFields()
	if w == nil {
		return t.Values[i]
	}
	tag, b := fieldAt(w, i)
	switch tag {
	case tagInt64:
		return int64(binary.LittleEndian.Uint64(b))
	case tagFloat64:
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	case tagString:
		return string(b)
	case tagBytes:
		return b[:len(b):len(b)]
	default: // tagBool: decode admits no other tag
		return b[0] == 1
	}
}

// Fields returns every field boxed, in a fresh slice the caller owns. It is
// the only way to get boxed values out of a decoded tuple.
func (t *Tuple) Fields() []Value {
	if t.wireFields() == nil {
		return append([]Value(nil), t.Values...)
	}
	out := make([]Value, t.Len())
	for i := range out {
		out[i] = t.Field(i)
	}
	return out
}

// HashField returns HashValue of field i without boxing it.
func (t *Tuple) HashField(i int) uint64 {
	if w := t.wireFields(); w != nil {
		_, b := fieldAt(w, i)
		return fnv1a(b)
	}
	return HashValue(t.Values[i])
}

// HashValue is the 64-bit FNV-1a hash of a field value's bytes as the wire
// carries them: eight little-endian bytes for an int64 or a float64's bits,
// the bytes of a string or []byte, one 0/1 byte for a bool. A value of
// another type hashes as no bytes. Key grouping places keys by it, so it
// must never change: checkpoint shards and rescale ownership depend on it.
func HashValue(v Value) uint64 {
	switch x := v.(type) {
	case int64:
		return fnvUint64(uint64(x))
	case float64:
		return fnvUint64(math.Float64bits(x))
	case string:
		return fnv1a(x)
	case []byte:
		return fnv1a(x)
	case bool:
		if x {
			return fnv1a("\x01")
		}
		return fnv1a("\x00")
	}
	return fnv1a("")
}

// fnv1a is 64-bit FNV-1a, written out so hashing a key neither allocates a
// hash.Hash nor converts a string.
func fnv1a[B string | []byte](b B) uint64 {
	h := fnvOffset
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * fnvPrime
	}
	return h
}

// fnvUint64 is fnv1a over v's eight little-endian bytes.
func fnvUint64(v uint64) uint64 {
	h := fnvOffset
	for i := 0; i < 8; i++ {
		h = (h ^ v&0xff) * fnvPrime
		v >>= 8
	}
	return h
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// String renders the tuple for debugging.
func (t *Tuple) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tuple{stream=%s id=%d src=%d fields=[", t.Stream, t.ID, t.SrcTask)
	for i := 0; i < t.Len(); i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%v", t.Field(i))
	}
	b.WriteString("]}")
	return b.String()
}

// BatchTuple is Whale's worker-oriented unit (paper Fig. 9b): one data item
// plus the ids of every destination instance hosted on the same worker.
// The data item is serialized exactly once regardless of len(DstIDs).
type BatchTuple struct {
	DstIDs []int32
	Data   *Tuple
}

// AddressedTuple is the unit a worker-side dispatcher hands to a local
// executor after unpacking a WorkerMessage: destination task id + data item.
// Src records the worker the enclosing message arrived from; LocalSrc marks
// tuples that never crossed a transport link.
type AddressedTuple struct {
	TaskID int32
	Src    int32
	Data   *Tuple
}

// LocalSrc is the AddressedTuple.Src sentinel for locally produced tuples
// (spout emits, intra-worker emits, timer events): no credit is owed.
const LocalSrc int32 = -1

// Expand fans a BatchTuple out into one AddressedTuple per destination id.
// The data item is shared, not copied: this is the whole point of the
// worker-oriented design.
func (b *BatchTuple) Expand() []AddressedTuple {
	out := make([]AddressedTuple, len(b.DstIDs))
	for i, id := range b.DstIDs {
		out[i] = AddressedTuple{TaskID: id, Src: LocalSrc, Data: b.Data}
	}
	return out
}
