package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"whale/internal/dsps"
	"whale/internal/obs"
	"whale/internal/rdma"
	"whale/internal/snapshot"
	"whale/internal/tuple"
)

type oneShotSpout struct {
	n int
	i int
}

func (s *oneShotSpout) Open(*dsps.TaskContext) {}
func (s *oneShotSpout) Next(c *dsps.Collector) bool {
	if s.i >= s.n {
		return false
	}
	c.Emit(int64(s.i))
	s.i++
	return true
}
func (s *oneShotSpout) Close() {}

type countingBolt struct {
	counter *sync.Map
	ctx     *dsps.TaskContext
}

func (b *countingBolt) Prepare(ctx *dsps.TaskContext) { b.ctx = ctx }
func (b *countingBolt) Execute(tp *tuple.Tuple, _ *dsps.Collector) {
	v, _ := b.counter.LoadOrStore(b.ctx.TaskID, new(int64))
	*(v.(*int64))++
}
func (b *countingBolt) Cleanup() {}

func buildAllGroupingTopo(n int, counter *sync.Map, parallelism int) *dsps.Topology {
	b := dsps.NewTopologyBuilder()
	b.Spout("src", func() dsps.Spout { return &oneShotSpout{n: n} }, 1)
	b.Bolt("match", func() dsps.Bolt { return &countingBolt{counter: counter} }, parallelism).All("src")
	topo, err := b.Build()
	if err != nil {
		panic(err)
	}
	return topo
}

func TestSystemStrings(t *testing.T) {
	want := map[System]string{
		Storm: "Storm", RDMAStorm: "RDMA-Storm", WhaleWOC: "Whale-WOC",
		WhaleWOCRDMA: "Whale-WOC-RDMA", WhaleSequential: "Whale-Sequential",
		RDMC: "RDMC", Whale: "Whale",
	}
	for s, w := range want {
		if s.String() != w {
			t.Fatalf("%d -> %q, want %q", int(s), s, w)
		}
	}
	if len(Systems) != 7 {
		t.Fatalf("Systems has %d entries", len(Systems))
	}
}

func TestEngineConfigShapes(t *testing.T) {
	o := Options{Workers: 4, Transport: TransportInproc}
	cases := []struct {
		sys  System
		comm dsps.CommMode
		mc   dsps.MulticastMode
	}{
		{Storm, dsps.InstanceOriented, dsps.MulticastStar},
		{RDMAStorm, dsps.InstanceOriented, dsps.MulticastStar},
		{WhaleWOC, dsps.WorkerOriented, dsps.MulticastStar},
		{WhaleWOCRDMA, dsps.WorkerOriented, dsps.MulticastStar},
		{WhaleSequential, dsps.WorkerOriented, dsps.MulticastStar},
		{RDMC, dsps.WorkerOriented, dsps.MulticastBinomial},
		{Whale, dsps.WorkerOriented, dsps.MulticastNonBlocking},
	}
	for _, c := range cases {
		cfg, err := c.sys.EngineConfig(o)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Comm != c.comm || cfg.Multicast != c.mc {
			t.Fatalf("%v: comm=%v mc=%v", c.sys, cfg.Comm, cfg.Multicast)
		}
		if cfg.Network == nil {
			t.Fatalf("%v: nil network", c.sys)
		}
		cfg.Network.Close()
	}
}

// TestEverySystemDeliversAllGrouping launches each preset end to end on its
// canonical transport and checks exactly-once delivery to every instance.
func TestEverySystemDeliversAllGrouping(t *testing.T) {
	const n, parallelism = 150, 8
	for _, sys := range Systems {
		sys := sys
		t.Run(sys.String(), func(t *testing.T) {
			var counter sync.Map
			topo := buildAllGroupingTopo(n, &counter, parallelism)
			opts := Options{
				Workers:      4,
				MMS:          8 << 10,
				InitialDstar: 2, FixedDstar: sys != Whale,
			}
			eng, err := sys.Launch(topo, opts)
			if err != nil {
				t.Fatal(err)
			}
			eng.WaitSpouts()
			if !eng.Drain(20 * time.Second) {
				eng.Stop()
				t.Fatal("drain failed")
			}
			eng.Stop()
			tasks := 0
			counter.Range(func(_, v any) bool {
				tasks++
				if got := *(v.(*int64)); got != n {
					t.Fatalf("a task received %d of %d", got, n)
				}
				return true
			})
			if tasks != parallelism {
				t.Fatalf("%d tasks heard from, want %d", tasks, parallelism)
			}
		})
	}
}

func TestLaunchErrors(t *testing.T) {
	var counter sync.Map
	topo := buildAllGroupingTopo(1, &counter, 2)
	if _, err := System(99).Launch(topo, Options{Transport: TransportInproc}); err == nil {
		t.Fatal("unknown system accepted")
	}
	if _, err := Whale.Launch(topo, Options{Transport: TransportKind(99)}); err == nil {
		t.Fatal("unknown transport accepted")
	}
	if System(99).String() == "" {
		t.Fatal("unknown system must still render")
	}
	_ = fmt.Sprint(TransportAuto, TransportInproc, TransportTCP, TransportRDMA)
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Workers != 4 || o.MMS != 256<<10 {
		t.Fatalf("defaults: %+v", o)
	}
	// Explicit values survive.
	o2 := Options{Workers: 9, MMS: 512}.withDefaults()
	if o2.Workers != 9 || o2.MMS != 512 {
		t.Fatalf("overrides lost: %+v", o2)
	}
}

// presetFields are the Options fields the preset layer consumes itself
// instead of forwarding to dsps.Config.
var presetFields = map[string]bool{"Transport": true, "MMS": true, "ObsAddr": true, "TraceSampleEvery": true}

// sentinel returns a non-zero value of type ft that no default replaces.
func sentinel(t *testing.T, ft reflect.Type) reflect.Value {
	v := reflect.New(ft).Elem()
	switch {
	case ft == reflect.TypeOf((*snapshot.Store)(nil)).Elem():
		v.Set(reflect.ValueOf(snapshot.NewMemStore()))
	case ft.Kind() == reflect.Bool:
		v.SetBool(true)
	case ft.Kind() == reflect.Int || ft.Kind() == reflect.Int64:
		v.SetInt(7)
	case ft.Kind() == reflect.Float64:
		v.SetFloat(0.5)
	case ft.Kind() == reflect.Struct:
		for i := 0; i < ft.NumField(); i++ {
			v.Field(i).Set(sentinel(t, ft.Field(i).Type))
		}
	default:
		t.Fatalf("no sentinel for %v", ft)
	}
	return v
}

// TestOptionsForwardToEngine: every Options field is either consumed by the
// preset layer or is the dsps.Config field of the same name and type, and
// EngineConfig carries each forwarded field over unchanged.
func TestOptionsForwardToEngine(t *testing.T) {
	ot, ct := reflect.TypeOf(Options{}), reflect.TypeOf(dsps.Config{})
	for i := 0; i < ot.NumField(); i++ {
		f := ot.Field(i)
		t.Run(f.Name, func(t *testing.T) {
			cf, ok := ct.FieldByName(f.Name)
			if presetFields[f.Name] {
				if ok {
					t.Fatalf("preset-layer field %s shadows dsps.Config.%s", f.Name, f.Name)
				}
				return
			}
			if !ok || cf.Type != f.Type {
				t.Fatalf("Options.%s %v is not a dsps.Config field of the same name and type", f.Name, f.Type)
			}
			o := Options{Transport: TransportInproc}
			want := sentinel(t, f.Type)
			reflect.ValueOf(&o).Elem().Field(i).Set(want)
			cfg, err := Whale.EngineConfig(o)
			if err != nil {
				t.Fatal(err)
			}
			defer cfg.Network.Close()
			if got := reflect.ValueOf(cfg).FieldByIndex(cf.Index); !reflect.DeepEqual(got.Interface(), want.Interface()) {
				t.Fatalf("EngineConfig dropped Options.%s: got %#v, want %#v", f.Name, got, want)
			}
		})
	}
}

// TestFlushHookCountsAndLogsDominantReason: every flush is counted under
// its reason (a link-free flush under rdma.flushes_explicit as well, which
// keeps mms + explicit the divisor of rdma.flush_bytes), and the event log
// hears about the reason only when the majority of a window changes, not
// whenever two consecutive flushes differ.
func TestFlushHookCountsAndLogsDominantReason(t *testing.T) {
	scope := obs.NewScope(obs.Config{})
	hook := flushHook(scope)
	// Two windows of mostly link-free flushes with a full batch mixed in
	// every tenth: hundreds of consecutive-reason changes, no event.
	for i := 0; i < 2*flushWindow; i++ {
		if i%10 == 9 {
			hook(rdma.FlushMMS, 1000)
		} else {
			hook(rdma.FlushIdle, 100)
		}
	}
	if evs := scope.Events.Recent(0); len(evs) != 0 {
		t.Fatalf("%d events while the dominant reason stayed idle: %+v", len(evs), evs)
	}
	// The links fill up: a window of size flushes.
	for i := 0; i < flushWindow; i++ {
		hook(rdma.FlushMMS, 1000)
	}
	hook(rdma.FlushExplicit, 100)
	evs := scope.Events.Recent(0)
	if len(evs) != 1 || evs[0].Kind != obs.EventFlushReason || evs[0].Detail != "dominant flush reason idle -> mms" {
		t.Fatalf("events after a window of size flushes: %+v", evs)
	}
	c := scope.Reg.Snapshot().Counters
	idle, mms := int64(2*flushWindow*9/10+1), int64(2*flushWindow/10+flushWindow)
	for name, want := range map[string]int64{
		"rdma.flushes_idle":     idle,
		"rdma.flushes_mms":      mms,
		"rdma.flushes_explicit": idle + 1,
		"rdma.flush_bytes":      100*(idle+1) + 1000*mms,
	} {
		if c[name] != want {
			t.Errorf("%s = %d, want %d", name, c[name], want)
		}
	}
}
