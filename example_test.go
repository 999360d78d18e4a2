package shiftedmirror_test

// Documentation examples for the public API (go doc / pkg.go.dev).

import (
	"fmt"

	"shiftedmirror"
)

// The paper's three properties, checked for any arrangement.
func ExampleCheckProperties() {
	for _, spec := range []string{"traditional", "shifted", "iterated:3"} {
		arr, _ := shiftedmirror.ParseArrangement(spec, 3)
		fmt.Printf("%-12s %v\n", spec, shiftedmirror.CheckProperties(arr))
	}
	// Output:
	// traditional  P3
	// shifted      P1+P2+P3
	// iterated:3   P1+P2
}

// Improvement factors from §VI of the paper.
func ExampleMirrorImprovement() {
	fmt.Println(shiftedmirror.MirrorImprovement(5))
	fmt.Println(shiftedmirror.MirrorParityImprovement(5))
	// Output:
	// 5
	// 2.75
}

// A recovery plan for the F3 double-failure case of §V-B: one element is
// doubly lost and comes back through the parity equation.
func ExampleMirror_RecoveryPlan() {
	arch := shiftedmirror.NewShiftedMirrorWithParity(3)
	plan, _ := arch.RecoveryPlan([]shiftedmirror.DiskID{
		{Role: shiftedmirror.RoleData, Index: 0},
		{Role: shiftedmirror.RoleMirror, Index: 1},
	})
	fmt.Println("read accesses:", plan.AvailAccesses())
	for _, rec := range plan.Recoveries {
		fmt.Printf("%v via %v\n", rec.Target, rec.Method)
	}
	// Output:
	// read accesses: 2
	// data[0]r0 via copy
	// data[0]r2 via copy
	// data[0]r1 via xor
	// mirror[1]r0 via copy
	// mirror[1]r1 via copy
	// mirror[1]r2 via copy
}

// A fault-tolerant block device surviving a disk failure.
func ExampleNewDevice() {
	d := shiftedmirror.NewDevice(shiftedmirror.NewShiftedMirror(3), 512, 4)
	d.WriteAt([]byte("important data"), 0)
	d.Fail(shiftedmirror.DiskID{Role: shiftedmirror.RoleData, Index: 0})
	buf := make([]byte, 14)
	d.ReadAt(buf, 0)
	fmt.Println(string(buf))
	// Output: important data
}
