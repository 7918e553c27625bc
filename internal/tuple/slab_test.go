package tuple

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"unsafe"
)

// A Slab hands out tuples and receive buffers from blocks it then forgets
// (DESIGN §11, "Receive path"). These tests pin that it amortises, that a
// block fills its size class, that what it hands out never overlaps, and
// that a kept tuple survives its block's turnover and the collector.

func TestSlabDecodeAmortises(t *testing.T) {
	buf, err := AppendTuple(nil, allocTestTuple())
	if err != nil {
		t.Fatal(err)
	}
	var s Slab
	if _, _, err := s.Decode(buf); err != nil { // interns the stream name
		t.Fatal(err)
	}
	const decodes = 1024
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < decodes; i++ {
			if _, _, err := s.Decode(buf); err != nil {
				t.Fatal(err)
			}
		}
	})
	if want := float64(decodes/128 + 1); allocs > want {
		t.Fatalf("%d Slab.Decode calls allocate %.1f objects, want <= %.0f", decodes, allocs, want)
	}
}

// headerOnlyFrame is an ack-plane frame: no fields, its values in the
// header.
func headerOnlyFrame() *Tuple {
	return &Tuple{Stream: "__ack", ID: 9, SrcTask: 5, RootEmitNS: 1234, RootID: -7 << 40, AckVal: 0x5DEECE66D, Epoch: 3}
}

func TestSlabDecodeHeaderOnlyFrame(t *testing.T) {
	in := headerOnlyFrame()
	buf, err := AppendTuple(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	var s Slab
	tp, n, err := s.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) || tp.Len() != 0 {
		t.Fatalf("decoded %d of %d bytes into %d fields, want all bytes and no fields", n, len(buf), tp.Len())
	}
	got := *tp
	got.wire = nil
	if got.Stream != in.Stream || got.ID != in.ID || got.SrcTask != in.SrcTask || got.RootEmitNS != in.RootEmitNS ||
		got.RootID != in.RootID || got.AckVal != in.AckVal || got.Epoch != in.Epoch {
		t.Fatalf("decoded header %+v, want %+v", got, *in)
	}
}

func TestSlabNewAmortises(t *testing.T) {
	var s Slab
	const tuples = 1024
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < tuples; i++ {
			s.New().ID = int64(i)
		}
	})
	if want := float64(tuples/slabConstructed + 1); allocs > want {
		t.Fatalf("%d Slab.New calls allocate %.1f objects, want <= %.0f", tuples, allocs, want)
	}
}

// TestSlabBlocksFillTheirSizeClass pins the block arithmetic: an object
// above 512 B that holds pointers carries an 8 B allocation header, and a
// block must fit the 16 KiB class with it, without leaving room for one
// more entry.
func TestSlabBlocksFillTheirSizeClass(t *testing.T) {
	const class, header = 16 << 10, 8
	for _, b := range []struct {
		name  string
		n     int
		entry uintptr
	}{
		{"decoded", slabDecoded, unsafe.Sizeof(decoded{})},
		{"constructed", slabConstructed, unsafe.Sizeof(Tuple{})},
	} {
		size := uintptr(b.n)*b.entry + header
		if size > class || size+b.entry <= class {
			t.Errorf("%s block: %d entries of %d B plus the header is %d B, want the most that fits %d B",
				b.name, b.n, b.entry, size, class)
		}
	}
}

// TestSlabBufDisjoint: every buffer Buf hands out is its own, capacity
// clipped, so an append to one reallocates instead of writing into the
// next; requests above a quarter chunk get their own allocation.
func TestSlabBufDisjoint(t *testing.T) {
	var s Slab
	sizes := []int{0, 1, 7, 100, chunkMaxBuf, 3000, chunkMaxBuf + 1, 64, 5000, chunkBytes, 1}
	var bufs [][]byte
	for round := 0; round < 20; round++ { // enough to cross several chunks
		for i, n := range sizes {
			b := s.Buf(n)
			if len(b) != n || cap(b) != n {
				t.Fatalf("Buf(%d): len %d cap %d", n, len(b), cap(b))
			}
			for j := range b {
				if b[j] != 0 {
					t.Fatalf("Buf(%d) is not zeroed", n)
				}
				b[j] = byte(round*len(sizes) + i)
			}
			bufs = append(bufs, b)
		}
	}
	// An append to each buffer must leave every other buffer as it was.
	for i := range bufs {
		grown := append(bufs[i], 0xee, 0xee, 0xee)
		if len(bufs[i]) > 0 && &grown[0] == &bufs[i][0] {
			t.Fatalf("append to buffer %d reused its storage", i)
		}
	}
	for i, b := range bufs {
		want := byte(i)
		for j := range b {
			if b[j] != want {
				t.Fatalf("buffer %d (%d B) byte %d is %#x, want %#x: buffers overlap", i, len(b), j, b[j], want)
			}
		}
	}
}

// turnoverTuple is the source of the i-th tuple in TestSlabTurnover.
func turnoverTuple(i int) *Tuple {
	return &Tuple{
		Stream:  fmt.Sprintf("s%d", i%3),
		ID:      int64(i),
		SrcTask: int32(i % 17),
		Epoch:   int64(i / 100),
		TraceID: int64(i * 7),
		Values: []Value{int64(i), fmt.Sprintf("key-%d", i), float64(i) / 4,
			bytes.Repeat([]byte{byte(i)}, i%40), i%2 == 0},
	}
}

// TestSlabTurnover decodes 10 000 tuples on one goroutine from buffers cut
// from receive chunks, as a receive loop does, and reads every one on
// another (run it under -race). Every 97th is kept; the rest, and the
// blocks they filled, become garbage. After two collections, and fresh
// allocations that would reuse any freed memory, every kept tuple must
// still read exactly what its source set.
func TestSlabTurnover(t *testing.T) {
	const n, keepEvery = 10000, 97
	decodedc := make(chan *Tuple, 64)
	errc := make(chan error, 1)
	go func() {
		defer close(decodedc)
		var s Slab
		for i := 0; i < n; i++ {
			enc, err := AppendTuple(nil, turnoverTuple(i))
			if err != nil {
				errc <- err
				return
			}
			buf := s.Buf(len(enc))
			copy(buf, enc)
			tp, _, err := s.Decode(buf)
			if err != nil {
				errc <- err
				return
			}
			decodedc <- tp
		}
	}()
	check := func(i int, tp *Tuple) {
		t.Helper()
		want := turnoverTuple(i)
		if tp.Stream != want.Stream || tp.ID != want.ID || tp.SrcTask != want.SrcTask ||
			tp.Epoch != want.Epoch || tp.TraceID != want.TraceID {
			t.Fatalf("tuple %d header reads %+v, want %+v", i, *tp, *want)
		}
		if tp.Int(0) != int64(i) || tp.StringAt(1) != want.Values[1] || tp.Float(2) != want.Values[2] ||
			!bytes.Equal(tp.Bytes(3), want.Values[3].([]byte)) || tp.Bool(4) != want.Values[4] {
			t.Fatalf("tuple %d fields read %v, want %v", i, tp.Fields(), want.Values)
		}
	}
	kept := map[int]*Tuple{}
	i := 0
	for tp := range decodedc {
		check(i, tp)
		if i%keepEvery == 0 {
			kept[i] = tp
		}
		i++
	}
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if i != n {
		t.Fatalf("decoded %d tuples, want %d", i, n)
	}
	runtime.GC()
	runtime.GC()
	litter := make([][]byte, 0, 256)
	for j := 0; j < cap(litter); j++ {
		litter = append(litter, bytes.Repeat([]byte{0xa5}, 1<<12))
	}
	for i, tp := range kept {
		check(i, tp)
	}
	runtime.KeepAlive(litter)
}
