package tuple

// Slab sizes. The allocator puts an 8 B header in front of every object
// above 512 B that holds pointers, so a block of n entries costs n×size+8
// bytes, rounded up to a size class. 127 decoded entries (128 B each) and
// 157 constructed tuples (104 B each) are the most that fit the 16 KiB
// class; one more entry would tip either block into the 18 KiB class and
// waste an eighth of it. A receive chunk is a 64 KiB large object (a whole
// number of heap pages, no header), and a request above chunkMaxBuf gets an
// allocation of its own so that one big buffer cannot strand most of a
// chunk.
const (
	slabDecoded     = 127
	slabConstructed = 157
	chunkBytes      = 64 << 10
	chunkMaxBuf     = chunkBytes / 4
)

// Slab bump-allocates the objects a single-owner loop creates once per
// message: decoded tuples (Decode), constructed tuples (New) and receive
// buffers (Buf). Each comes out of a block the Slab allocated, so a loop
// pays one heap object per block instead of one per message. A used-up
// block is abandoned to the garbage collector, never reused or pooled:
// what the Slab handed out stays valid, and stays the caller's, for as
// long as it is reachable. The price is retention: a live tuple keeps its
// whole block alive (16 KiB), and a live receive buffer its whole chunk
// (64 KiB), until every object in it is dropped.
//
// A Slab is not safe for concurrent use; its owner hands what it allocates
// to other goroutines by the usual synchronisation. The zero Slab is ready
// to use.
type Slab struct {
	decoded     []decoded
	constructed []Tuple
	chunk       []byte
}

// Decode is DecodeTuple with the decoded tuple taken from the slab: the
// same validation and the same result, and the same aliasing of buf.
//
//whale:hotpath
func (s *Slab) Decode(buf []byte) (*Tuple, int, error) {
	t, fields, n, err := decodeTuple(buf)
	if err != nil {
		return nil, 0, err
	}
	if len(s.decoded) == 0 {
		s.decoded = make([]decoded, slabDecoded)
	}
	d := &s.decoded[0]
	s.decoded = s.decoded[1:]
	d.Tuple, d.fields = t, fields
	d.wire = &d.fields
	return &d.Tuple, n, nil
}

// New returns a zeroed tuple for the caller to fill in.
//
//whale:hotpath
func (s *Slab) New() *Tuple {
	if len(s.constructed) == 0 {
		s.constructed = make([]Tuple, slabConstructed)
	}
	t := &s.constructed[0]
	s.constructed = s.constructed[1:]
	return t
}

// Buf returns a zeroed n-byte buffer whose capacity is n, so an append to
// it reallocates rather than run into the next buffer of the chunk.
func (s *Slab) Buf(n int) []byte {
	if n > chunkMaxBuf {
		return make([]byte, n)
	}
	if n > len(s.chunk) {
		s.chunk = make([]byte, chunkBytes)
	}
	b := s.chunk[:n:n]
	s.chunk = s.chunk[n:]
	return b
}
