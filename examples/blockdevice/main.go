// Block device: the shifted mirror method as a working storage data
// path, not just a planner. The device is the volume core every backend
// kind shares, here over in-process disks: writes keep replicas and
// parity consistent, two disk failures are survived transparently
// (degraded reads, from parity where both copies of an element are
// gone), each failed disk is rebuilt in place while it stays online, and
// a scrub proves the invariants.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"

	"shiftedmirror"
)

func main() {
	const (
		n           = 4
		elementSize = 4096
		stripes     = 8
	)
	arch := shiftedmirror.NewShiftedMirrorWithParity(n)
	device := shiftedmirror.NewDevice(arch, elementSize, stripes)
	fmt.Printf("device: %s, %d KiB logical capacity, fault tolerance %d\n",
		arch.Name(), device.Size()/1024, arch.FaultTolerance())

	// Fill it with data.
	payload := make([]byte, device.Size())
	rand.New(rand.NewSource(2012)).Read(payload)
	if _, err := device.WriteAt(payload, 0); err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	if _, err := device.Scrub(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("filled and scrubbed clean")

	// Two disks die.
	failed := []shiftedmirror.DiskID{
		{Role: shiftedmirror.RoleData, Index: 1},
		{Role: shiftedmirror.RoleMirror, Index: 3},
	}
	for _, id := range failed {
		if err := device.Fail(id); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("failed %v\n", id)
	}

	// Service continues: every byte still readable, writes still land.
	check := make([]byte, device.Size())
	if _, err := device.ReadAt(check, 0); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(check, payload) {
		log.Fatal("degraded read returned wrong data")
	}
	h := device.Health()
	fmt.Printf("degraded reads: all data intact (%d elements from a replica or parity, %d of them from parity)\n",
		h.DegradedReads, h.ParityReads)
	update := []byte("written while two disks were down")
	if _, err := device.WriteAt(update, 12345); err != nil {
		log.Fatal(err)
	}
	copy(payload[12345:], update)

	// Rebuild both replacements and verify.
	for _, id := range failed {
		if err := device.RebuildDisk(ctx, id); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("rebuilt %v\n", id)
	}
	if _, err := device.Scrub(ctx); err != nil {
		log.Fatal(err)
	}
	if _, err := device.ReadAt(check, 0); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(check, payload) {
		log.Fatal("post-rebuild data mismatch")
	}
	fmt.Println("rebuild complete, scrub clean, data byte-identical")
}
