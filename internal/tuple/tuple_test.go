package tuple

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleTuple() *Tuple {
	return &Tuple{
		Stream:     "locations",
		ID:         42,
		SrcTask:    7,
		RootEmitNS: 123456789,
		RootID:     555,
		AckVal:     -777,
		Values:     []Value{int64(-5), float64(3.25), "driver-001", []byte{1, 2, 3}, true},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := sampleTuple()
	buf, err := AppendTuple(nil, in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, n, err := DecodeTuple(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d bytes, want %d", n, len(buf))
	}
	// A decoded tuple keeps its fields as wire bytes: compare the header
	// and the boxed fields, not the structs.
	got := *out
	got.wire, got.Values = nil, out.Fields()
	if !reflect.DeepEqual(in, &got) {
		t.Fatalf("round trip mismatch:\n in=%v\nout=%v", in, out)
	}
}

func TestEncodedSizeMatchesEncoding(t *testing.T) {
	in := sampleTuple()
	buf, err := AppendTuple(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := EncodedSize(in), len(buf); got != want {
		t.Fatalf("EncodedSize=%d, encoding is %d bytes", got, want)
	}
}

func TestEncoderReusesBuffer(t *testing.T) {
	e := NewEncoder()
	a, err := e.EncodeTuple(sampleTuple())
	if err != nil {
		t.Fatal(err)
	}
	first := append([]byte(nil), a...)
	b, err := e.EncodeTuple(sampleTuple())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, b) {
		t.Fatal("second encoding differs from first for identical tuple")
	}
}

func TestDecodeTruncated(t *testing.T) {
	buf, err := AppendTuple(nil, sampleTuple())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeTuple(buf[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded, want error", cut, len(buf))
		}
	}
}

func TestEncodeUnsupportedType(t *testing.T) {
	in := &Tuple{Stream: "s", Values: []Value{complex(1, 2)}}
	if _, err := AppendTuple(nil, in); err == nil {
		t.Fatal("expected error for unsupported field type")
	}
}

func TestEmptyTuple(t *testing.T) {
	in := &Tuple{}
	buf, err := AppendTuple(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := DecodeTuple(buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stream != "" || out.Len() != 0 || len(out.Fields()) != 0 {
		t.Fatalf("empty tuple round trip: %v", out)
	}
}

func TestSpecialFloats(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, 0, math.Copysign(0, -1)} {
		in := &Tuple{Stream: "f", Values: []Value{f}}
		buf, err := AppendTuple(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := DecodeTuple(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Float(0); math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("float %v round-tripped to %v", f, got)
		}
	}
	// NaN compares unequal to itself; check bit pattern explicitly.
	in := &Tuple{Stream: "f", Values: []Value{math.NaN()}}
	buf, _ := AppendTuple(nil, in)
	out, _, err := DecodeTuple(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(out.Float(0)) {
		t.Fatal("NaN did not round trip")
	}
}

// randomTuple builds an arbitrary valid tuple from a rand source.
func randomTuple(r *rand.Rand) *Tuple {
	nf := r.Intn(8)
	vals := make([]Value, nf)
	for i := range vals {
		switch r.Intn(5) {
		case 0:
			vals[i] = r.Int63() - r.Int63()
		case 1:
			vals[i] = r.NormFloat64()
		case 2:
			b := make([]byte, r.Intn(32))
			r.Read(b)
			vals[i] = string(b)
		case 3:
			b := make([]byte, r.Intn(32))
			r.Read(b)
			vals[i] = b
		case 4:
			vals[i] = r.Intn(2) == 0
		}
	}
	name := make([]byte, r.Intn(12))
	for i := range name {
		name[i] = byte('a' + r.Intn(26))
	}
	return &Tuple{
		Stream:     string(name),
		ID:         r.Int63(),
		SrcTask:    int32(r.Intn(1 << 20)),
		RootEmitNS: r.Int63(),
		RootID:     r.Int63() - r.Int63(),
		AckVal:     r.Int63() - r.Int63(),
		Values:     vals,
	}
}

func TestQuickTupleRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r.Seed(seed)
		in := randomTuple(r)
		buf, err := AppendTuple(nil, in)
		if err != nil {
			return false
		}
		if EncodedSize(in) != len(buf) {
			return false
		}
		out, n, err := DecodeTuple(buf)
		if err != nil || n != len(buf) {
			return false
		}
		return tuplesEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func tuplesEqual(a, b *Tuple) bool {
	if a.Stream != b.Stream || a.ID != b.ID || a.SrcTask != b.SrcTask || a.RootEmitNS != b.RootEmitNS || a.RootID != b.RootID || a.AckVal != b.AckVal || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		av, bv := a.Field(i), b.Field(i)
		if ab, ok := av.([]byte); ok {
			bb, ok2 := bv.([]byte)
			if !ok2 || !bytes.Equal(ab, bb) {
				return false
			}
			continue
		}
		if av != bv {
			return false
		}
	}
	return true
}

func TestCloneIndependence(t *testing.T) {
	a := sampleTuple()
	b := a.Clone()
	b.Values[0] = int64(99)
	if a.Values[0].(int64) == 99 {
		t.Fatal("Clone shares the Values slice")
	}
}

func TestAccessors(t *testing.T) {
	tp := sampleTuple()
	if tp.Int(0) != -5 {
		t.Fatal("Int")
	}
	if tp.Float(1) != 3.25 {
		t.Fatal("Float")
	}
	if tp.StringAt(2) != "driver-001" {
		t.Fatal("StringAt")
	}
	if !bytes.Equal(tp.Bytes(3), []byte{1, 2, 3}) {
		t.Fatal("Bytes")
	}
	if !tp.Bool(4) {
		t.Fatal("Bool")
	}
}
