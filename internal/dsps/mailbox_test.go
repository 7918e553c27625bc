package dsps

import (
	"sync"
	"testing"
)

// TestMailboxKeepsPutOrder: with producers putting concurrently and the
// consumer taking whatever has accumulated, every producer's values come
// out in the order it put them and none is lost or repeated.
func TestMailboxKeepsPutOrder(t *testing.T) {
	const producers, perProducer = 4, 20000
	type item struct{ producer, seq int }
	m := newMailbox[item]()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for seq := 1; seq <= perProducer; seq++ {
				m.put(item{p, seq})
			}
		}(p)
	}
	last := make([]int, producers)
	for got := 0; got < producers*perProducer; {
		<-m.kick
		for _, it := range m.take() {
			if it.seq != last[it.producer]+1 {
				t.Fatalf("producer %d: seq %d taken after %d", it.producer, it.seq, last[it.producer])
			}
			last[it.producer] = it.seq
			m.done()
			got++
		}
	}
	wg.Wait()
	if m.len() != 0 || len(m.take()) != 0 {
		t.Fatalf("mailbox not empty after the last value: len %d", m.len())
	}
}

// TestMailboxCountsTakenBatch: a taken value stays in len until the
// consumer calls done for it.
func TestMailboxCountsTakenBatch(t *testing.T) {
	m := newMailbox[int]()
	if m.len() != 0 {
		t.Fatal("new mailbox is not empty")
	}
	m.put(1)
	m.put(2)
	if m.len() != 2 {
		t.Fatalf("after two puts: len %d", m.len())
	}
	batch := m.take()
	if len(batch) != 2 || batch[0] != 1 || batch[1] != 2 {
		t.Fatalf("batch %v", batch)
	}
	if m.len() != 2 {
		t.Fatalf("taken batch not counted: len %d", m.len())
	}
	m.put(3) // lands in the next batch, not the one being processed
	m.done()
	if m.len() != 2 {
		t.Fatalf("one done of three: len %d", m.len())
	}
	m.done()
	if next := m.take(); len(next) != 1 || next[0] != 3 {
		t.Fatalf("next batch %v", next)
	}
	m.done()
	if m.len() != 0 {
		t.Fatalf("all done: len %d", m.len())
	}
}
