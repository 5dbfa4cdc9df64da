// Package ddl implements the distributed data lookup (DDL), the capability
// addressing scheme of SemperOS (paper §3.2).
//
// Every kernel object that must be referable by other kernels gets a DDL
// key: a 64-bit value split into bit fields
//
//	| PE ID | VPE ID | Type | Object ID |
//
// where PE ID and VPE ID denote the creator of the object and Type and
// Object ID describe the object itself. The PE ID splits the key space into
// partitions; each partition is assigned to exactly one kernel via the
// membership table, which is replicated at every kernel. Given any DDL key,
// any kernel can therefore decide which kernel owns the named object without
// communication.
package ddl

import (
	"fmt"
)

// Bit-field widths of a DDL key. 12 bits of PE ID support 4096 PEs, well
// above the 640-PE evaluation platform; 34 bits of object ID are practically
// inexhaustible for a simulation run.
const (
	PEBits     = 12
	VPEBits    = 12
	TypeBits   = 6
	ObjectBits = 64 - PEBits - VPEBits - TypeBits

	// MaxPEs is the number of addressable PEs (and key-space partitions).
	MaxPEs = 1 << PEBits
	// MaxVPEs is the number of addressable VPEs per PE.
	MaxVPEs = 1 << VPEBits
)

// Type identifies the kind of object a DDL key names.
type Type uint8

// Object types. They mirror the resources SemperOS manages through
// capabilities: VPEs, byte-granular memory, communication endpoints,
// services and sessions.
const (
	TypeInvalid Type = iota
	TypeVPE
	TypeMem
	TypeSend
	TypeRecv
	TypeService
	TypeSession
	TypeKernel
	typeMax
)

func (t Type) String() string {
	switch t {
	case TypeVPE:
		return "vpe"
	case TypeMem:
		return "mem"
	case TypeSend:
		return "send"
	case TypeRecv:
		return "recv"
	case TypeService:
		return "service"
	case TypeSession:
		return "session"
	case TypeKernel:
		return "kernel"
	default:
		return "invalid"
	}
}

// Key is a globally valid DDL key. The zero Key is invalid and never names
// an object.
type Key uint64

// NewKey assembles a DDL key from its fields. It panics if a field exceeds
// its width: keys are constructed by kernels from validated inputs, so an
// overflow is a kernel bug.
func NewKey(pe, vpe int, typ Type, object uint64) Key {
	if pe < 0 || pe >= MaxPEs {
		panic(fmt.Sprintf("ddl: PE %d out of range", pe))
	}
	if vpe < 0 || vpe >= MaxVPEs {
		panic(fmt.Sprintf("ddl: VPE %d out of range", vpe))
	}
	if typ == TypeInvalid || typ >= typeMax {
		panic(fmt.Sprintf("ddl: bad type %d", typ))
	}
	if object >= 1<<ObjectBits {
		panic(fmt.Sprintf("ddl: object id %d out of range", object))
	}
	return Key(uint64(pe)<<(VPEBits+TypeBits+ObjectBits) |
		uint64(vpe)<<(TypeBits+ObjectBits) |
		uint64(typ)<<ObjectBits |
		object)
}

// PE returns the creator PE field (the key-space partition).
func (k Key) PE() int { return int(k >> (VPEBits + TypeBits + ObjectBits)) }

// VPE returns the creator VPE field.
func (k Key) VPE() int {
	return int(k>>(TypeBits+ObjectBits)) & (MaxVPEs - 1)
}

// Type returns the object type field.
func (k Key) Type() Type {
	return Type(k>>ObjectBits) & (1<<TypeBits - 1)
}

// Object returns the object id field.
func (k Key) Object() uint64 { return uint64(k) & (1<<ObjectBits - 1) }

// Valid reports whether the key names an object (nonzero with a known type).
func (k Key) Valid() bool {
	t := k.Type()
	return k != 0 && t != TypeInvalid && t < typeMax
}

func (k Key) String() string {
	if !k.Valid() {
		return "key<invalid>"
	}
	return fmt.Sprintf("key<pe%d:v%d:%s:%d>", k.PE(), k.VPE(), k.Type(), k.Object())
}

// Generator hands out fresh object ids per creator (pe, vpe) pair, so that
// keys minted by one kernel never collide. Each creator has a counter of its
// own, from 0, in a KeyMap: a kernel holds counters only for the creators
// it serves (its group's VPEs, and the rare second PE minting for one of
// them), whatever their global ids.
type Generator struct {
	counters KeyMap[uint64]
}

// NewGenerator returns an empty key generator.
func NewGenerator() *Generator {
	return &Generator{}
}

// NewGenerators returns n empty generators with room for creators creators
// each: their tables are two allocations for all n (boot-time layout).
func NewGenerators(n, creators int) []Generator {
	size, gens := TableLen(creators), make([]Generator, n)
	keys, vals := make([]Key, n*size), make([]uint64, n*size)
	for i := range gens {
		gens[i].counters = KeyMap[uint64]{keys: keys[i*size : (i+1)*size], vals: vals[i*size : (i+1)*size]}
	}
	return gens
}

// Next mints a fresh key for creator (pe, vpe) and the given type.
func (g *Generator) Next(pe, vpe int, typ Type) Key {
	return NewKey(pe, vpe, typ, g.NextID(pe, vpe))
}

// NextID mints a fresh object id for creator (pe, vpe) without fixing the
// type yet. Used by exchange protocols where the object type becomes known
// only at the owner's side; both kernels then compose the same key.
func (g *Generator) NextID(pe, vpe int) uint64 {
	if pe < 0 || pe >= MaxPEs || vpe < 0 || vpe >= MaxVPEs {
		panic(fmt.Sprintf("ddl: creator (%d, %d) out of range", pe, vpe))
	}
	// The creator's fields alone, plus one: never the invalid key 0.
	creator := Key(uint64(pe)<<VPEBits|uint64(vpe)) + 1
	n := g.counters.Slot(creator)
	obj := *n
	*n++
	return obj
}

// Membership is the table mapping key-space partitions (PE IDs) to kernels.
// In the paper every kernel holds a replica. The mapping is static — filled
// once at boot, never changed, because PE migration is unsupported — so the
// replicas are identical and one table per machine models all of them.
type Membership struct {
	kernelOf []int
}

// NewMembership creates a table for a machine with pes PEs, with every
// partition unassigned (-1).
func NewMembership(pes int) *Membership {
	m := &Membership{kernelOf: make([]int, pes)}
	for i := range m.kernelOf {
		m.kernelOf[i] = -1
	}
	return m
}

// Assign maps PE pe's partition to the given kernel.
func (m *Membership) Assign(pe, kernel int) {
	m.kernelOf[pe] = kernel
}

// KernelOf returns the kernel managing PE pe's partition, or -1.
func (m *Membership) KernelOf(pe int) int {
	if pe < 0 || pe >= len(m.kernelOf) {
		return -1
	}
	return m.kernelOf[pe]
}

// KernelOfKey returns the kernel owning the object named by k, derived
// purely from the key and the table — the core of the DDL.
func (m *Membership) KernelOfKey(k Key) int { return m.KernelOf(k.PE()) }

// PEs returns the number of PEs covered by the table.
func (m *Membership) PEs() int { return len(m.kernelOf) }
