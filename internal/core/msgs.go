package core

import (
	"repro/internal/cap"
	"repro/internal/ddl"
	"repro/internal/dtu"
)

// Kernel DTU endpoint layout. User-PE endpoints live in vpe.go; these are
// the receive endpoints every kernel configures at boot (endpoints 0 and 1
// are left unconfigured so the kernel layout cannot be confused with the
// user layout, whose syscall channel occupies them). Inter-kernel legs do
// not use the DTU's endpoints: they are ikcWires (ikc.go).
const (
	// kernelSyscallEP0 is the first of the SyscallRecvEPs syscall receive
	// endpoints (kernelSyscallEP0 .. kernelSyscallEP0+SyscallRecvEPs-1);
	// a VPE's syscall send endpoint targets one of them by PE number.
	kernelSyscallEP0 = 2
)

// Errno is the error code space shared by system calls and inter-kernel
// calls.
type Errno uint8

// Error codes.
const (
	OK Errno = iota
	ErrNoSuchCap
	ErrDenied
	ErrInRevocation
	ErrVPEGone
	ErrNoService
	ErrBadArgs
	ErrOutOfMem
	ErrExists
	// ErrPeerDead is the degraded-mode answer for requests to a kernel
	// that exhausted its retry budget (see reliability.go): the call
	// completes with this error instead of hanging.
	ErrPeerDead
)

func (e Errno) Error() string {
	switch e {
	case OK:
		return "ok"
	case ErrNoSuchCap:
		return "no such capability"
	case ErrDenied:
		return "denied"
	case ErrInRevocation:
		return "capability is being revoked"
	case ErrVPEGone:
		return "VPE has exited"
	case ErrNoService:
		return "no such service"
	case ErrBadArgs:
		return "bad arguments"
	case ErrOutOfMem:
		return "out of memory"
	case ErrExists:
		return "already exists"
	case ErrPeerDead:
		return "peer kernel dead"
	default:
		return "unknown error"
	}
}

// Err converts an Errno into an error (nil for OK).
func (e Errno) Err() error {
	if e == OK {
		return nil
	}
	return e
}

// sysKind enumerates the system calls.
type sysKind uint8

const (
	sysAllocMem sysKind = iota
	sysDeriveMem
	sysObtainFrom
	sysDelegateTo
	sysRevoke
	sysCreateRgate
	sysCreateSession
	sysObtainSess
	sysDelegateSess
	sysActivate
	sysRegisterService
	sysExit
	sysNoop
)

func (k sysKind) String() string {
	names := [...]string{
		"allocmem", "derivemem", "obtainfrom", "delegateto", "revoke",
		"creatergate", "createsession", "obtainsess", "delegatesess",
		"activate", "registerservice", "exit", "noop",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return "unknown"
}

// sysRequest is the payload of a syscall message from a VPE to its kernel.
type sysRequest struct {
	Kind sysKind
	VPE  int // issuing VPE

	Sel       cap.Selector // primary capability selector
	TargetVPE int          // peer VPE for direct exchanges
	TargetSel cap.Selector // peer selector for direct exchanges
	Size      uint64       // allocation size / derive length
	Off       uint64       // derive offset
	EP        int          // endpoint index for activate / rgate
	Perm      dtu.Perm
	Name      string // service name
	Args      any    // opaque protocol arguments (service-defined)
}

// sysReply is the payload of a syscall reply.
type sysReply struct {
	Err  Errno
	Sel  cap.Selector
	Args any
}

// ikcKind enumerates the inter-kernel calls. They fall into the paper's
// three functional groups: startup/shutdown (handled at boot in this
// implementation), service connections (ikcSession, ikcObtainSess,
// ikcDelegateSess) and capability exchange/revocation (the rest).
type ikcKind uint8

const (
	ikcObtain ikcKind = iota
	ikcDelegate
	ikcDelegateAck
	ikcRevoke
	ikcUnlinkChild
	ikcSession
	ikcObtainSess
	ikcDelegateSess
	ikcRevokeBatch
	// ikcRejoin is the recovery handshake: a kernel that crashed and came
	// back broadcasts it (with its bumped incarnation number) so every peer
	// clears its dead verdict and discards state keyed by the dead
	// incarnation (rejoin.go).
	ikcRejoin
)

func (k ikcKind) String() string {
	names := [...]string{
		"obtain", "delegate", "delegate-ack", "revoke", "unlink-child",
		"session", "obtain-sess", "delegate-sess", "revoke-batch", "rejoin",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return "unknown"
}

// ikcRequest is the payload of an inter-kernel request message, a record
// recycled through System.reqs by reference count (Kernel.request, hold,
// drop): every holder of a *ikcRequest — the call, a wire leg, the receiving
// job, a queue, a transmission, a revocation — holds one reference.
type ikcRequest struct {
	Seq  uint64
	From int // sender kernel id
	// Inc is the sender's incarnation number when the request first went
	// on the wire (a retransmit keeps it), and ToInc the addressee's as the
	// sender knew it then. A receiver running the reliable layer rejects
	// requests from an incarnation older than the one it has observed — a
	// stale retransmit from before the sender's crash — and implicitly
	// admits a newer one; it also rejects a request addressed to a dead
	// incarnation of its own, which the sender aborts when it admits the
	// rejoin (rejoin.go).
	Inc   uint32
	ToInc uint32

	Key    ddl.Key      // primary capability: the source's service capability, the delegated one, a revocation target
	Keys   []ddl.Key    // batched revocation targets (ikcRevokeBatch); the record's own array
	Child  ddl.Key      // child capability key (acks, unlinks); the session's service capability (ikcDelegateSess)
	VPE    int          // the source's owner (ikcObtain); the delegator (ikcDelegate, ikcDelegateSess)
	Sel    cap.Selector // selector at the owner side (ikcObtain)
	Perm   dtu.Perm
	Kind   ikcKind
	Ident  uint64 // session identifier for session-scoped calls
	Ok     bool   // delegate-ack verdict
	refs   int32  // references held; the record is back in System.reqs at 0
	Object cap.Object
	Args   any

	// ChildPE/ChildVPE/ChildObj are the requester-minted child identity of an
	// obtain or session-open; the owner composes the final child key from
	// them once the object type is known, so both kernels agree on the key
	// with one round trip. A direct delegate sets only ChildVPE, the
	// receiver: its kernel mints the rest.
	ChildPE  int
	ChildVPE int
	ChildObj uint64
}

// ikcReply is the payload of an inter-kernel reply message. Replies are
// values, from the handler that returns one to the slot of the thread that
// waits for it: the wire, the reply sink and the reliable reply cache hold
// copies, so a reply costs no allocation. They are matched to their request
// by sequence number. A reply either travels as its own wire message (the
// unbatched transport) or rides a reply envelope: the sink (transport.go,
// flushReplies) puts the replies queued for one destination kernel into one
// ikcWire, whose arrival completes the calls pending on them in enqueue
// order.
type ikcReply struct {
	Seq  uint64
	From int
	// Inc echoes the request's incarnation stamp, so a requester that
	// crashed and recovered in between rejects the late reply — it answers
	// a question asked by the dead incarnation (rejoin.go).
	Inc  uint32
	Err  Errno
	Perm dtu.Perm

	Key    ddl.Key // the parent the child was linked under (obtain, session-open); the prepared child (delegate)
	Object cap.Object
	Args   any
}

// ExchangeQuery is delivered to a VPE when another VPE wants to exchange a
// capability with it (paper Fig. 3, steps A.2/B.3: the kernel asks the
// other party for consent).
type ExchangeQuery struct {
	// Obtain is true for an obtain (the peer takes a capability from this
	// VPE), false for a delegate (the peer pushes one to this VPE).
	Obtain bool
	// PeerVPE is the global id of the initiating VPE.
	PeerVPE int
	// Sel is the local selector involved (source for obtain).
	Sel cap.Selector
}

// ExchangeAnswer is the VPE's verdict on an ExchangeQuery.
type ExchangeAnswer struct {
	Accept bool
}
