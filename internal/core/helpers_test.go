package core

import (
	"testing"

	"repro/internal/isa/x86"
)

// TestGuestSyscallBounds: guest-controlled addresses and sizes reach the
// write and alloc syscalls unchecked by anything else, so out-of-range
// values must come back as errors — never a host panic, and never an
// allocation that moves the heap cursor backwards.
func TestGuestSyscallBounds(t *testing.T) {
	const mem = 32 << 20 // the default machine size
	huge := ^uint64(0)
	for _, tc := range []struct {
		name    string
		nr      uint64
		a0, a1  uint64
		wantErr bool
	}{
		{"write in bounds", GuestSysWrite, 0x10000, 4, false},
		{"write ends at memory end", GuestSysWrite, mem - 2, 2, false},
		{"write past memory end", GuestSysWrite, mem - 1, 2, true},
		{"write address wraps", GuestSysWrite, huge, 2, true},
		{"write length wraps", GuestSysWrite, 2, huge, true},
		{"alloc small", GuestSysAlloc, 64, 0, false},
		{"alloc larger than memory", GuestSysAlloc, mem, 0, true},
		{"alloc rounding wraps", GuestSysAlloc, huge, 0, true},
		{"alloc end wraps", GuestSysAlloc, huge - 0x1000, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := New(chainImage(t, 1, 1))
			if err != nil {
				t.Fatal(err)
			}
			c := rt.M.CPUs[0]
			heap := rt.heapCur
			*guestReg(c, x86.RAX) = tc.nr
			*guestReg(c, x86.RDI) = tc.a0
			*guestReg(c, x86.RSI) = tc.a1
			err = rt.guestSyscall(rt.M, c)
			if (err != nil) != tc.wantErr {
				t.Fatalf("error = %v, want error %v", err, tc.wantErr)
			}
			if rt.heapCur < heap {
				t.Fatalf("heap cursor moved backwards: %#x → %#x", heap, rt.heapCur)
			}
			if tc.nr == GuestSysAlloc && !tc.wantErr && *guestReg(c, x86.RAX) != heap {
				t.Fatalf("alloc returned %#x, want %#x", *guestReg(c, x86.RAX), heap)
			}
		})
	}
}
