// Remote device: the shifted-mirror data path over TCP. Each disk of a
// shifted mirror+parity array is one store on its own backend (what
// `smtool servedisk` runs on another machine), and the client stripes a
// ClusterVolume over the 2n+1 of them: it writes, loses two backends,
// keeps reading (degraded, from replicas and from parity), rebuilds each
// lost disk onto a fresh backend and scrubs. Here every backend runs in
// this process for a self-contained demo.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"

	"shiftedmirror"
	"shiftedmirror/internal/blockserver"
	"shiftedmirror/internal/dev"
)

func main() {
	const n, elementSize, stripes = 4, 4096, 8
	arch := shiftedmirror.NewShiftedMirrorWithParity(n)

	// Backend side: one served store per disk.
	servers := map[shiftedmirror.DiskID]*blockserver.Server{}
	defer func() {
		for _, srv := range servers {
			srv.Close()
		}
	}()
	serve := func(id shiftedmirror.DiskID) string {
		srv := blockserver.NewStoreServer(dev.NewMemStore(stripes * n * elementSize))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		servers[id] = srv
		return addr.String()
	}
	backends := map[shiftedmirror.DiskID]string{}
	for _, id := range arch.Disks() {
		backends[id] = serve(id)
	}

	// Client side.
	v, err := shiftedmirror.NewClusterVolume(arch, backends, shiftedmirror.WithGeometry(elementSize, stripes))
	if err != nil {
		log.Fatal(err)
	}
	defer v.Close()
	fmt.Printf("%s striped over %d backends\n", arch.Name(), len(backends))
	payload := make([]byte, v.Size())
	rand.New(rand.NewSource(99)).Read(payload)
	if _, err := v.WriteAt(payload, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d KiB over the wire\n", v.Size()/1024)

	// Two backends die with their disks; service continues.
	lost := []shiftedmirror.DiskID{
		{Role: shiftedmirror.RoleData, Index: 2},
		{Role: shiftedmirror.RoleMirror, Index: 0},
	}
	for _, id := range lost {
		servers[id].Close()
		if err := v.Fail(id); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("failed %v\n", id)
	}
	check := make([]byte, v.Size())
	if _, err := v.ReadAt(check, 0); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(check, payload) {
		log.Fatal("remote degraded read returned wrong data")
	}
	h := v.Health()
	fmt.Printf("degraded reads served: %d (%d of them from parity)\n", h.DegradedReads, h.ParityReads)

	// Rebuild each lost disk onto a fresh backend and verify.
	ctx := context.Background()
	for _, id := range lost {
		if err := v.ReplaceBackend(id, serve(id)); err != nil {
			log.Fatal(err)
		}
		if err := v.RebuildDisk(ctx, id); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("rebuilt %v onto a fresh backend\n", id)
	}
	rep, err := v.Scrub(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := v.ReadAt(check, 0); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(check, payload) {
		log.Fatal("post-rebuild data mismatch")
	}
	fmt.Printf("scrub clean (%d elements compared); data byte-identical\n", rep.ElementsCompared)
}
