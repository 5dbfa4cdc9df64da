package ddl

import (
	"testing"
	"testing/quick"
)

func TestKeyRoundTrip(t *testing.T) {
	cases := []struct {
		pe, vpe int
		typ     Type
		obj     uint64
	}{
		{0, 0, TypeVPE, 0},
		{1, 2, TypeMem, 3},
		{MaxPEs - 1, MaxVPEs - 1, TypeSession, 1<<ObjectBits - 1},
		{639, 511, TypeService, 123456789},
	}
	for _, c := range cases {
		k := NewKey(c.pe, c.vpe, c.typ, c.obj)
		if k.PE() != c.pe || k.VPE() != c.vpe || k.Type() != c.typ || k.Object() != c.obj {
			t.Errorf("round trip failed for %+v: got pe=%d vpe=%d typ=%v obj=%d",
				c, k.PE(), k.VPE(), k.Type(), k.Object())
		}
		if !k.Valid() {
			t.Errorf("key %v invalid", k)
		}
	}
}

func TestKeyRoundTripProperty(t *testing.T) {
	f := func(pe, vpe uint16, typ uint8, obj uint64) bool {
		p := int(pe) % MaxPEs
		v := int(vpe) % MaxVPEs
		ty := Type(typ%uint8(typeMax-1)) + 1 // skip TypeInvalid
		o := obj % (1 << ObjectBits)
		k := NewKey(p, v, ty, o)
		return k.PE() == p && k.VPE() == v && k.Type() == ty && k.Object() == o && k.Valid()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroKeyInvalid(t *testing.T) {
	var k Key
	if k.Valid() {
		t.Fatal("zero key reported valid")
	}
	if k.String() != "key<invalid>" {
		t.Fatalf("String = %q", k.String())
	}
}

func TestKeyFieldOverflowPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"pe":   func() { NewKey(MaxPEs, 0, TypeVPE, 0) },
		"vpe":  func() { NewKey(0, MaxVPEs, TypeVPE, 0) },
		"type": func() { NewKey(0, 0, TypeInvalid, 0) },
		"obj":  func() { NewKey(0, 0, TypeVPE, 1<<ObjectBits) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s overflow did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestGeneratorUnique(t *testing.T) {
	g := NewGenerator()
	seen := make(map[Key]bool)
	for pe := 0; pe < 3; pe++ {
		for i := 0; i < 100; i++ {
			k := g.Next(pe, 1, TypeMem)
			if seen[k] {
				t.Fatalf("duplicate key %v", k)
			}
			seen[k] = true
		}
	}
}

func TestGeneratorIndependentCreators(t *testing.T) {
	g := NewGenerator()
	k1 := g.Next(1, 1, TypeMem)
	k2 := g.Next(2, 1, TypeMem)
	if k1.Object() != 0 || k2.Object() != 0 {
		t.Fatal("creators do not have independent object id spaces")
	}
	if k1 == k2 {
		t.Fatal("keys from different creators collide")
	}
}

// TestGeneratorSequences: interleaved creators each count from 0 on their
// own, whatever their global ids — VPEs 63 and 64, which the generator once
// kept on different pages, and 4095 — and a second PE minting for a VPE
// that another PE minted for first has a sequence of its own too. These are
// the ids the generator produced when it paged its counters by VPE id and
// kept second PEs in an overflow map.
func TestGeneratorSequences(t *testing.T) {
	type mint struct {
		pe, vpe int
		want    uint64
	}
	for _, tc := range []struct {
		name  string
		mints []mint
	}{
		{"one creator", []mint{{3, 0, 0}, {3, 0, 1}, {3, 0, 2}}},
		{"interleaved VPEs", []mint{
			{10, 63, 0}, {11, 64, 0}, {10, 63, 1}, {12, 4095, 0}, {11, 64, 1}, {10, 63, 2}, {12, 4095, 1},
		}},
		{"second PE for one VPE", []mint{
			{5, 7, 0}, {6, 7, 0}, {5, 7, 1}, {6, 7, 1}, {6, 7, 2}, {5, 7, 2}, {9, 7, 0},
		}},
		{"PE 0, VPE 0 and the field limits", []mint{
			{0, 0, 0}, {MaxPEs - 1, MaxVPEs - 1, 0}, {0, 0, 1}, {0, MaxVPEs - 1, 0}, {MaxPEs - 1, 0, 0}, {MaxPEs - 1, MaxVPEs - 1, 1},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGenerator()
			for i, m := range tc.mints {
				if got := g.NextID(m.pe, m.vpe); got != m.want {
					t.Fatalf("mint %d by (%d, %d) = %d, want %d", i, m.pe, m.vpe, got, m.want)
				}
			}
		})
	}
}

func TestMembership(t *testing.T) {
	m := NewMembership(8)
	if m.KernelOf(3) != -1 {
		t.Fatal("unassigned PE has a kernel")
	}
	for pe := 0; pe < 8; pe++ {
		m.Assign(pe, pe/4) // PEs 0-3 -> kernel 0, 4-7 -> kernel 1
	}
	for pe := 0; pe < 8; pe++ {
		if got := m.KernelOf(pe); got != pe/4 {
			t.Fatalf("KernelOf(%d) = %d, want %d", pe, got, pe/4)
		}
	}
	k := NewKey(5, 0, TypeVPE, 9)
	if m.KernelOfKey(k) != 1 {
		t.Fatalf("KernelOfKey = %d, want 1", m.KernelOfKey(k))
	}
}

func TestMembershipOutOfRange(t *testing.T) {
	m := NewMembership(4)
	if m.KernelOf(-1) != -1 || m.KernelOf(99) != -1 {
		t.Fatal("out-of-range PE did not return -1")
	}
}

func TestTypeStrings(t *testing.T) {
	want := map[Type]string{
		TypeVPE: "vpe", TypeMem: "mem", TypeSend: "send", TypeRecv: "recv",
		TypeService: "service", TypeSession: "session", TypeKernel: "kernel",
		TypeInvalid: "invalid",
	}
	for typ, s := range want {
		if typ.String() != s {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), s)
		}
	}
}

// TestNewGeneratorsMintLikeNewGenerator: laid-out generators hand out the
// ids a fresh generator does, each on its own, also past their boot-time
// table.
func TestNewGeneratorsMintLikeNewGenerator(t *testing.T) {
	gens := NewGenerators(3, 2)
	refs := []*Generator{NewGenerator(), NewGenerator(), NewGenerator()}
	for round := 0; round < 3; round++ {
		for creator := 0; creator < 40; creator++ {
			for i := range gens {
				if got, want := gens[i].NextID(i, creator), refs[i].NextID(i, creator); got != want {
					t.Fatalf("generator %d, creator %d: id %d, want %d", i, creator, got, want)
				}
			}
		}
	}
}
