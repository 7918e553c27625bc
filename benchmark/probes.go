package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"whale/internal/core"
	"whale/internal/kafkalite"
	"whale/internal/multicast"
	"whale/internal/snapshot"
	"whale/internal/transport"
	"whale/internal/tuple"
)

const (
	probeCalls = 20000 // timed repetitions of a direct call
	probePings = 200   // one-at-a-time messages through the two-worker transport
)

// perCall times calls repetitions of fn and returns the mean, in ns.
func perCall(calls int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		fn()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}

// probes times direct calls into single layers on the workload's own
// tuples: what one encode, decode, send, tree build, snapshot write or
// broker call costs with nothing else running.
func probes(w job, set func(name, unit string, v float64)) error {
	tp, localDsts := w.sample()

	// tuple: the wire codec on this workload's tuple.
	wire, err := tuple.AppendTuple(nil, tp)
	if err != nil {
		return fmt.Errorf("encode sample tuple: %w", err)
	}
	buf := make([]byte, 0, 2*len(wire))
	set("tuple.wire_bytes", "B", float64(len(wire)))
	// The same tuple encoded without error just above.
	set("tuple.encode_ns", "ns", perCall(probeCalls, func() { buf, _ = tuple.AppendTuple(buf[:0], tp) }))
	var decErr error
	set("tuple.decode_ns", "ns", perCall(probeCalls, func() {
		if _, _, err := tuple.DecodeTuple(wire); err != nil {
			decErr = err
		}
	}))
	msg := &tuple.WorkerMessage{Kind: tuple.KindWorkerMessage, Payload: wire}
	for i := 0; i < localDsts; i++ {
		msg.DstIDs = append(msg.DstIDs, int32(i+1))
	}
	frame := tuple.AppendWorkerMessage(nil, msg)
	set("tuple.worker_msg_encode_ns", "ns", perCall(probeCalls, func() { buf = tuple.AppendWorkerMessage(buf[:0], msg) }))
	var scratch tuple.WorkerMessage
	set("tuple.worker_msg_decode_ns", "ns", perCall(probeCalls, func() {
		if _, err := tuple.DecodeWorkerMessageInto(&scratch, frame); err != nil {
			decErr = err
		}
	}))
	if decErr != nil {
		return fmt.Errorf("decode sample tuple: %w", decErr)
	}

	// transport: one frame at a time between two workers on the workload's
	// wire, so the time includes whatever batching delay the wire adds to a
	// lone message (the WTL timer on the emulated RDMA channel).
	p50, err := deliverP50(w, frame)
	if err != nil {
		return err
	}
	set("transport.deliver_us_p50", "us", p50)

	// multicast: building the fan-out workload's tree from scratch.
	dests := make([]multicast.NodeID, fanWorkers-1)
	for i := range dests {
		dests[i] = multicast.NodeID(i + 1)
	}
	set("multicast.build_us", "us", perCall(probeCalls/10, func() { multicast.BuildNonBlocking(0, dests, 3) })/1e3)

	// snapshot: one task's state into the in-memory store.
	store := snapshot.NewMemStore()
	state := make([]byte, 16<<10)
	var putErr error
	set("snapshot.put_us", "us", perCall(probeCalls/10, func() {
		if err := store.Put(1, "volume-0", state); err != nil {
			putErr = err
		}
	})/1e3)
	if putErr != nil {
		return fmt.Errorf("snapshot put: %w", putErr)
	}

	// kafkalite: the broker's produce and fetch paths.
	broker := kafkalite.NewBroker()
	if err := broker.CreateTopic("probe", 1, 0); err != nil {
		return err
	}
	value := make([]byte, 21)
	var brokerErr error
	set("kafkalite.produce_ns_per_record", "ns", perCall(probeCalls, func() {
		if _, err := broker.ProduceTo("probe", 0, nil, value); err != nil {
			brokerErr = err
		}
	}))
	var off int64
	const poll = 64
	set("kafkalite.fetch_ns_per_record", "ns", perCall(probeCalls/poll, func() {
		_, next, err := broker.Fetch("probe", 0, off, poll)
		if err != nil {
			brokerErr = err
		}
		off = next
	})/poll)
	if brokerErr != nil {
		return fmt.Errorf("kafkalite probe: %w", brokerErr)
	}
	return nil
}

// deliverP50 sends frames one at a time from worker 0 to worker 1 over a
// fresh network of the workload's kind and returns the median send-to-
// handler time in µs.
func deliverP50(w job, frame []byte) (float64, error) {
	cfg, err := w.system().EngineConfig(core.Options{Workers: 2})
	if err != nil {
		return 0, err
	}
	net := cfg.Network
	got := make(chan struct{}, 1) // one ping in flight at a time
	if _, err := net.Register(1, func(transport.WorkerID, []byte) { got <- struct{}{} }); err != nil {
		return 0, err
	}
	tr, err := net.Register(0, func(transport.WorkerID, []byte) {})
	if err != nil {
		return 0, err
	}
	var times []int64
	for i := 0; i < probePings; i++ {
		t0 := time.Now()
		if err := tr.Send(1, frame); err != nil {
			return 0, fmt.Errorf("transport probe send: %w", err)
		}
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			return 0, fmt.Errorf("transport probe: frame %d not delivered in 5s", i)
		}
		times = append(times, time.Since(t0).Nanoseconds())
	}
	if err := net.Close(); err != nil {
		return 0, fmt.Errorf("transport probe close: %w", err)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return float64(percentile(times, 0.5)) / 1e3, nil
}

// spanFileTuples caps how many tuples' spans go into the span file.
const spanFileTuples = 2000

// writeSpans writes the benchmark's own spans as Chrome trace-event JSON:
// one row per tuple (tid = seq, the id its spans share), one complete event
// per span of the chain, evenly sampled over seqs.
func writeSpans(path, workload string, ch []boundary, rec *recorder, seqs []int64) error {
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		PID  int     `json:"pid"`
		TID  int64   `json:"tid"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
	}
	events := []event{}
	step := len(seqs)/spanFileTuples + 1
	var ts []int64
	for i := 0; i < len(seqs); i += step {
		seq := seqs[i]
		prev := rec.due[seq]
		ts = cuts(ch, rec, seq, ts)
		for j, t := range ts {
			events = append(events, event{
				Name: ch[j].span, Cat: workload, Ph: "X", PID: 1, TID: seq,
				TS: float64(prev) / 1e3, Dur: float64(t-prev) / 1e3,
			})
			prev = t
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
