package tuple

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// A decoded tuple is a view over its wire bytes (DESIGN §11, "Receive
// path"): decode validates and boxes nothing, and the accessors read the
// fields in place. These tests pin that the view reads exactly what the
// producer set, costs one allocation, and is safe to share.

func decodeOK(t *testing.T, in *Tuple) (*Tuple, []byte) {
	t.Helper()
	buf, err := AppendTuple(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, n, err := DecodeTuple(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: n=%d of %d, err=%v", n, len(buf), err)
	}
	return out, buf
}

func TestDecodeTupleAllocatesOnlyTheTuple(t *testing.T) {
	buf, err := AppendTuple(nil, allocTestTuple()) // five fields, one a string
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeTuple(buf); err != nil { // interns the stream name
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := DecodeTuple(buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("DecodeTuple allocates %.1f/op, want 1 (the tuple)", allocs)
	}
}

// TestTupleSizeClass pins the struct size every constructed tuple pays: the
// wire pointer must not push Tuple past the 112 B size class.
func TestTupleSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Tuple{}); got > 112 {
		t.Fatalf("Tuple is %d B, want <= 112", got)
	}
}

func TestViewAccessors(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	cases := []struct {
		name string
		vals []Value
	}{
		{"no fields", nil},
		{"ints", []Value{int64(0), int64(-1), int64(math.MaxInt64), int64(math.MinInt64)}},
		{"floats", []Value{nan, math.Copysign(0, -1), math.Inf(-1), 3.25}},
		{"empty string", []Value{""}},
		{"empty bytes", []Value{[]byte{}}},
		{"bools", []Value{true, false}},
		{"mixed", []Value{"drv-001", int64(7), []byte{0, 1, 2}, 2.5, true, ""}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := &Tuple{Stream: "s", ID: 3, SrcTask: 2, Epoch: 9, TraceID: 4, Values: c.vals}
			out, buf := decodeOK(t, in)
			if out.Values != nil {
				t.Fatalf("decoded Values = %v, want nil", out.Values)
			}
			if out.Len() != len(c.vals) {
				t.Fatalf("Len = %d, want %d", out.Len(), len(c.vals))
			}
			for i, want := range c.vals {
				if got := out.Field(i); !sameValue(got, want) {
					t.Errorf("Field(%d) = %#v, want %#v", i, got, want)
				}
				var got Value
				switch want.(type) {
				case int64:
					got = out.Int(i)
				case float64:
					got = out.Float(i)
				case string:
					got = out.StringAt(i)
				case []byte:
					got = out.Bytes(i)
				case bool:
					got = out.Bool(i)
				}
				if !sameValue(got, want) {
					t.Errorf("typed accessor %d = %#v, want %#v", i, got, want)
				}
				if out.HashField(i) != HashValue(want) {
					t.Errorf("HashField(%d) differs from HashValue of the value", i)
				}
			}
			if !sameValues(out.Fields(), c.vals) {
				t.Errorf("Fields() = %#v, want %#v", out.Fields(), c.vals)
			}
			re, err := AppendTuple(nil, out)
			if err != nil || !bytes.Equal(re, buf) {
				t.Fatalf("re-encode of the decoded tuple differs (err %v):\n in=%x\nout=%x", err, buf, re)
			}
			if EncodedSize(out) != len(buf) {
				t.Fatalf("EncodedSize %d, encoding is %d bytes", EncodedSize(out), len(buf))
			}
			cl := out.Clone()
			if !sameValues(cl.Fields(), c.vals) {
				t.Fatal("Clone of a decoded tuple lost its fields")
			}
			if got, want := out.String(), in.String(); got != want {
				t.Fatalf("String = %q, want %q", got, want)
			}
		})
	}
}

// sameValue compares two field values, floats by bit pattern (NaN, -0).
func sameValue(a, b Value) bool {
	if fa, ok := a.(float64); ok {
		fb, ok := b.(float64)
		return ok && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return reflect.DeepEqual(a, b)
}

func sameValues(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestViewFieldsIsFresh(t *testing.T) {
	out, _ := decodeOK(t, &Tuple{Stream: "s", Values: []Value{int64(1), "a"}})
	f := out.Fields()
	f[0] = int64(99)
	if out.Int(0) != 1 || out.Fields()[0] != int64(1) {
		t.Fatal("Fields aliases the tuple")
	}
}

func TestViewStringCopiesBytesAlias(t *testing.T) {
	out, buf := decodeOK(t, &Tuple{Stream: "s", Values: []Value{"abc", []byte("xyz")}})
	s, b := out.StringAt(0), out.Bytes(1)
	if cap(b) != len(b) {
		t.Fatalf("Bytes capacity %d exceeds its length %d", cap(b), len(b))
	}
	for i := range buf {
		buf[i] = 0
	}
	if s != "abc" {
		t.Fatalf("StringAt aliases the receive buffer: %q", s)
	}
	if !bytes.Equal(b, []byte{0, 0, 0}) {
		t.Fatalf("Bytes does not alias the receive buffer: %q", b)
	}
}

// TestSettingValuesReplacesView: Values, once set, wins over the wire bytes.
func TestSettingValuesReplacesView(t *testing.T) {
	out, _ := decodeOK(t, &Tuple{Stream: "s", Values: []Value{int64(1)}})
	out.Values = []Value{int64(2), "b"}
	if out.Len() != 2 || out.Int(0) != 2 {
		t.Fatalf("Values did not replace the view: %v", out)
	}
	re, _ := AppendTuple(nil, out)
	back, _, err := DecodeTuple(re)
	if err != nil || back.Len() != 2 || back.StringAt(1) != "b" {
		t.Fatalf("re-encode ignored Values: %v %v", back, err)
	}
}

func TestViewAccessorPanics(t *testing.T) {
	out, _ := decodeOK(t, &Tuple{Stream: "s", Values: []Value{int64(1), "a", true}})
	for name, f := range map[string]func(){
		"Float of an int":    func() { out.Float(0) },
		"Int of a string":    func() { out.Int(1) },
		"Bytes of a string":  func() { out.Bytes(1) },
		"StringAt of bool":   func() { out.StringAt(2) },
		"Bool of an int":     func() { out.Bool(0) },
		"Int past the end":   func() { out.Int(3) },
		"Field past the end": func() { out.Field(3) },
		"negative index":     func() { out.Int(-1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		})
	}
}

// TestDecodeRejectsCorruptFields: validation stays at decode, with the
// errors the eager decoder returned.
func TestDecodeRejectsCorruptFields(t *testing.T) {
	buf, err := AppendTuple(nil, &Tuple{Stream: "s", Values: []Value{int64(1), true}})
	if err != nil {
		t.Fatal(err)
	}
	boolAt := len(buf) - 1
	for _, c := range []struct {
		name string
		edit func(b []byte) []byte
		want string
	}{
		{"bad bool byte", func(b []byte) []byte { b[boolAt] = 2; return b }, "invalid bool encoding 2"},
		{"unknown tag", func(b []byte) []byte { b[boolAt-1] = 9; return b }, "unknown field tag 9"},
		{"truncated", func(b []byte) []byte { return b[:boolAt] }, ErrTruncated.Error()},
	} {
		b := c.edit(append([]byte(nil), buf...))
		if _, _, err := DecodeTuple(b); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}

// TestViewConcurrentReaders: the local sinks of one worker read one decoded
// tuple at once (run under -race).
func TestViewConcurrentReaders(t *testing.T) {
	in := &Tuple{Stream: "fan", Values: []Value{int64(7), "key", 1.5, []byte{4, 5}, true}}
	out, _ := decodeOK(t, in)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if out.Int(0) != 7 || out.StringAt(1) != "key" || out.Float(2) != 1.5 ||
					!bytes.Equal(out.Bytes(3), []byte{4, 5}) || !out.Bool(4) || len(out.Fields()) != 5 {
					t.Error("concurrent read saw a wrong field")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestStreamInternBounded: names past the table's bound still decode
// correctly, and the table never holds more than its bound.
func TestStreamInternBounded(t *testing.T) {
	for i := 0; i < 3*maxInterned; i++ {
		name := fmt.Sprintf("stream-%d", i)
		out, _ := decodeOK(t, &Tuple{Stream: name})
		if out.Stream != name {
			t.Fatalf("decoded stream %q, want %q", out.Stream, name)
		}
		if n := len(*streamNames.Load()); n > maxInterned {
			t.Fatalf("intern table holds %d names, bound is %d", n, maxInterned)
		}
	}
	long := strings.Repeat("x", maxInternedLen+1)
	if out, _ := decodeOK(t, &Tuple{Stream: long}); out.Stream != long {
		t.Fatal("long stream name mangled")
	}
	if _, ok := (*streamNames.Load())[long]; ok {
		t.Fatal("a name past maxInternedLen was interned")
	}
}

// TestStreamInternConcurrent: decoders on several goroutines intern new
// names at once (run under -race); every decode still reads its own name.
func TestStreamInternConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				name := fmt.Sprintf("g%d-%d", g, i%40)
				buf, _ := AppendTuple(nil, &Tuple{Stream: name})
				out, _, err := DecodeTuple(buf)
				if err != nil {
					t.Error(err)
					return
				}
				if out.Stream != name {
					t.Errorf("decoded stream %q, want %q", out.Stream, name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
