// Package rdma is an in-process emulation of the RDMA verbs interface that
// Whale's communication layer is written against (paper §4 and the
// WhaleRDMAChannel artifact). It provides protection domains, registered
// memory regions, reliably-connected queue pairs, completion queues, the
// two-sided SEND/RECV and one-sided READ/WRITE operations, a ring memory
// region for sequential zero-copy style access, and a message Channel that
// batches whenever the link is busy, bounded by Whale's stream slicing (MMS).
//
// The emulation substitutes for InfiniBand RNIC hardware (see DESIGN.md):
// a per-QP "RNIC engine" goroutine executes posted work requests in order
// (preserving RC ordering), moving bytes between registered regions with
// memcpy. What is preserved from real RDMA is exactly what the paper's
// results depend on: posting a work request is cheap and asynchronous for
// the sender, one-sided operations complete without any remote CPU
// involvement, completions are reaped by polling CQs, and flow control is
// the application's job (the ring region's head/tail protocol).
//
// An optional CostModel imposes synthetic per-operation latency and
// bandwidth so microbenchmarks exhibit hardware-like asymmetries.
package rdma

import (
	"fmt"
	"sync"
	"time"
)

// CostModel adds synthetic delays to emulated operations. The zero value
// means "as fast as memcpy allows". Delays are imposed on the RNIC engine
// goroutine, not on posting threads — exactly like hardware.
type CostModel struct {
	// PostDelay is CPU-side time burned per posted work request (emulating
	// doorbell + WQE writing, ~hundreds of ns on real RNICs).
	PostDelay time.Duration
	// OpBaseDelay is per-operation base latency on the wire.
	OpBaseDelay time.Duration
	// BytesPerSecond is link bandwidth; zero means infinite.
	BytesPerSecond float64
	// TwoSidedExtraDelay models the rendezvous with the remote recv queue
	// that SEND/RECV pays and one-sided ops do not.
	TwoSidedExtraDelay time.Duration
	// RNRTimeout bounds how long a SEND waits for a remote receive buffer
	// before completing in error (receiver-not-ready). Zero means 5s.
	RNRTimeout time.Duration
}

func (c CostModel) rnrTimeout() time.Duration {
	if c.RNRTimeout == 0 {
		return 5 * time.Second
	}
	return c.RNRTimeout
}

func (c CostModel) transferDelay(bytes int) time.Duration {
	d := c.OpBaseDelay
	if c.BytesPerSecond > 0 {
		d += time.Duration(float64(bytes) / c.BytesPerSecond * 1e9)
	}
	return d
}

// Fabric is the emulated RDMA network: a registry of devices that can reach
// each other. One Fabric stands for one InfiniBand subnet.
type Fabric struct {
	mu        sync.Mutex
	devices   map[string]*Device
	endpoints map[string]*Endpoint // connection managers by device name
	cost      CostModel
}

// NewFabric creates an empty fabric with the given cost model.
func NewFabric(cost CostModel) *Fabric {
	return &Fabric{devices: map[string]*Device{}, endpoints: map[string]*Endpoint{}, cost: cost}
}

// NewDevice registers a new RNIC on the fabric under a unique name
// (typically one per emulated machine).
func (f *Fabric) NewDevice(name string) (*Device, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.devices[name]; dup {
		return nil, fmt.Errorf("rdma: device %q already exists", name)
	}
	d := &Device{
		name:   name,
		fabric: f,
		mrs:    map[uint32]*MR{},
	}
	f.devices[name] = d
	return d, nil
}

// Device looks up a registered device by name.
func (f *Fabric) Device(name string) (*Device, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.devices[name]
	return d, ok
}

// Device is an emulated RNIC. All exported methods are safe for concurrent
// use.
type Device struct {
	name    string
	fabric  *Fabric
	mu      sync.Mutex
	mrs     map[uint32]*MR
	nextKey uint32
	nextQP  uint32
	closed  bool
}

// Name returns the device's fabric-unique name.
func (d *Device) Name() string { return d.name }

// AllocPD allocates a protection domain on the device.
func (d *Device) AllocPD() *PD { return &PD{dev: d} }

// lookupMR resolves an rkey on this device.
func (d *Device) lookupMR(rkey uint32) (*MR, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	mr, ok := d.mrs[rkey]
	if !ok {
		return nil, fmt.Errorf("rdma: device %s has no MR with rkey %d", d.name, rkey)
	}
	return mr, nil
}

// PD is a protection domain: memory regions and queue pairs created under
// different PDs cannot be mixed (enforced on post, as real verbs do).
type PD struct {
	dev *Device
}

// Device returns the PD's device.
func (p *PD) Device() *Device { return p.dev }
