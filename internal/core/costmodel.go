// Package core implements the SemperOS multikernel: multiple microkernels,
// each managing a PE group, cooperating through inter-kernel calls to
// provide a single distributed capability system (paper §3 and §4).
//
// This package is the paper's primary contribution. It builds on the
// substrates: internal/sim (deterministic discrete-event engine),
// internal/noc (network-on-chip), internal/dtu (per-PE data transfer units),
// internal/ddl (distributed data lookup) and internal/cap (kernel-local
// capability trees).
package core

import "repro/internal/sim"

// Frequency of the simulated cores (paper §5.1: 2 GHz).
const (
	// CyclesPerMicrosecond converts cycles to microseconds at 2 GHz.
	CyclesPerMicrosecond = 2000
	// CyclesPerSecond is the clock rate.
	CyclesPerSecond = 2_000_000_000
)

// CostModel holds the cycle costs charged for kernel and user actions.
// NoC and DTU transfer times come from internal/noc on top of these.
//
// The constants are calibrated so that the Table 3 microbenchmarks land in
// the paper's magnitude (thousands of cycles per capability operation) with
// the paper's ratios: group-spanning operations roughly double local ones,
// and SemperOS local operations carry a measurable DDL-decoding overhead
// over the pointer-linked M3 baseline. Absolute values are calibration
// outputs, not micro-architectural measurements.
type CostModel struct {
	// SyscallDispatch is charged when a kernel thread picks up a syscall
	// (the message-based equivalent of a mode switch plus decode).
	SyscallDispatch sim.Duration
	// SyscallReply is charged to compose and send the syscall reply.
	SyscallReply sim.Duration
	// DDLDecode is charged per DDL key analysis (determining the owning
	// kernel and VPE of a key). This is the overhead SemperOS pays over M3's
	// plain pointers (paper §5.2).
	DDLDecode sim.Duration
	// CapLookup is charged per capability table lookup.
	CapLookup sim.Duration
	// CapCreate is charged to allocate and fill a new capability.
	CapCreate sim.Duration
	// CapLink is charged to insert a capability into the mapping database
	// (parent/child links plus selector table).
	CapLink sim.Duration
	// CapErase is charged to delete a capability from the mapping database.
	CapErase sim.Duration
	// RevokeMark is charged per capability marked in revocation phase one.
	RevokeMark sim.Duration
	// RevokeDelete is charged per capability deleted in phase two.
	RevokeDelete sim.Duration
	// IKCDispatch is charged when a kernel thread picks up an inter-kernel
	// request.
	IKCDispatch sim.Duration
	// IKCCompose is charged to build and send an inter-kernel request or
	// reply.
	IKCCompose sim.Duration
	// IKCMarshal is charged (on top of IKCCompose) to serialize or
	// deserialize capability objects travelling in exchange and session
	// messages; revoke messages carry only a key and skip it.
	IKCMarshal sim.Duration
	// VPEAccept is charged by a VPE's exchange handler to decide on an
	// exchange request (paper Fig. 3, steps A.2/A.3).
	VPEAccept sim.Duration
	// VPECreate is charged by the kernel to set up a VPE (capability space,
	// DTU configuration).
	VPECreate sim.Duration
	// ServiceRequest is the service-side processing time for one IPC
	// request (session open or file protocol request: path walks, extent
	// allocation).
	ServiceRequest sim.Duration
	// ServiceObtainQuery is the service-side time to answer a capability
	// exchange policy query (an extent-table lookup, much cheaper than a
	// path walk).
	ServiceObtainQuery sim.Duration
	// EPConfig is charged when the kernel configures a DTU endpoint on
	// behalf of an application (activate).
	EPConfig sim.Duration
	// LinkCyclesPerByte models the shared bandwidth of a PE group's mesh
	// region: bulk file data transfers of VPEs in the same group serialize
	// at this rate (the paper attributes part of the efficiency loss to
	// "contention ... for hardware resources like the interconnect").
	LinkCyclesPerByte float64
}

// DefaultCostModel returns the calibrated cost model used by the
// experiments.
func DefaultCostModel() CostModel {
	return CostModel{
		SyscallDispatch:    200,
		SyscallReply:       120,
		DDLDecode:          170,
		CapLookup:          200,
		CapCreate:          1400,
		CapLink:            485,
		CapErase:           160,
		RevokeMark:         240,
		RevokeDelete:       291,
		IKCDispatch:        442,
		IKCCompose:         500,
		IKCMarshal:         688,
		VPEAccept:          220,
		VPECreate:          1400,
		ServiceRequest:     1500,
		ServiceObtainQuery: 3000,
		EPConfig:           350,
		LinkCyclesPerByte:  0.025,
	}
}

// Architectural limits of the evaluation platform (paper §5.1): the DTU
// endpoint budget supports at most 64 kernels and at most 192 PEs per
// kernel; at most 4 inter-kernel messages may be in flight per kernel pair.
const (
	// MaxKernels is the maximum number of kernels in the system.
	MaxKernels = 64
	// MaxPEsPerKernel is the maximum group size per kernel (6 syscall
	// endpoints * 32 slots, one outstanding syscall per VPE).
	MaxPEsPerKernel = 192
	// MaxInflight is the maximum number of in-flight (unprocessed)
	// inter-kernel messages per kernel pair.
	MaxInflight = 4
	// RevokeThreads is the maximum number of kernel threads processing
	// incoming revoke requests (DoS bound, paper §4.3.3).
	RevokeThreads = 2
	// SyscallRecvEPs is the number of kernel DTU endpoints receiving
	// syscalls.
	SyscallRecvEPs = 6
)

// Message payload sizes in bytes, charged on the NoC.
const (
	syscallMsgBytes = 64
	syscallRepBytes = 48
	ikcMsgBytes     = 96
	ikcRepBytes     = 64
	vpeQueryBytes   = 48
	vpeAnswerBytes  = 16
	svcReqBytes     = 64
	svcRepBytes     = 64
	// ikcEnvelopeBytes is an envelope's header, which its payloads share.
	ikcEnvelopeBytes = 32
	// ikcBatchedReqBytes is the per-request payload inside an envelope: a
	// request standalone costs ikcMsgBytes, batched it shares the
	// envelope's header and drops per-message framing.
	ikcBatchedReqBytes = 72
	// ikcBatchedRepBytes is the per-reply payload inside a coalesced reply
	// envelope, shrunk from ikcRepBytes the same way.
	ikcBatchedRepBytes = 48
)
