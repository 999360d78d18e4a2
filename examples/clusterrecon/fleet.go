package main

import (
	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/dev"
	"shiftedmirror/internal/faultinject"
	"shiftedmirror/internal/raid"
)

// backendSpec is what one loopback backend is made of: the options its
// server takes and, when a measurement wraps it (fault injection), its
// store. A nil store means a fresh MemStore of the fleet's disk size.
type backendSpec struct {
	store blockserver.Store
	opts  []blockserver.ServerOption
}

// throttled is the spec of a backend whose reads drain at rate MB/s, the
// model of one disk's media rate (rate <= 0: unthrottled), plus opts.
func throttled(rate float64, opts ...blockserver.ServerOption) backendSpec {
	if rate > 0 {
		opts = append(opts[:len(opts):len(opts)], blockserver.WithReadRate(rate*1e6))
	}
	return backendSpec{opts: opts}
}

// fleet is one measurement's backends: a store server per disk on
// loopback, and the replacements spawned later, closed together.
type fleet struct {
	diskSize int64
	servers  []*blockserver.Server
}

// startFleet serves one backend per disk of arch, each built from what
// spec returns for it, and returns the fleet with the address map a
// volume is opened on.
func startFleet(arch *raid.Mirror, diskSize int64, spec func(raid.DiskID) backendSpec) (*fleet, map[raid.DiskID]string, error) {
	f := &fleet{diskSize: diskSize}
	backends := map[raid.DiskID]string{}
	for _, id := range arch.Disks() {
		addr, err := f.spawn(spec(id))
		if err != nil {
			f.close()
			return nil, nil, err
		}
		backends[id] = addr
	}
	return f, backends, nil
}

// spawn adds one backend to the fleet and returns its address.
func (f *fleet) spawn(b backendSpec) (string, error) {
	if b.store == nil {
		b.store = dev.NewMemStore(f.diskSize)
		if raceEnabled {
			// See faultinject.OrderedStore: the lock is for the detector.
			b.store = &faultinject.OrderedStore{Store: b.store}
		}
	}
	srv := blockserver.NewStoreServer(b.store, b.opts...)
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	f.servers = append(f.servers, srv)
	return bound.String(), nil
}

func (f *fleet) close() {
	for _, s := range f.servers {
		s.Close()
	}
}
