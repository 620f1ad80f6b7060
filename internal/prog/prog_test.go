package prog

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"spear/internal/isa"
)

func sampleProgram() *Program {
	return &Program{
		Name: "sample",
		Text: []isa.Instruction{
			{Op: isa.ADDI, Rd: 1, Rs: 0, Imm: 0x100000},
			{Op: isa.LD, Rd: 2, Rs: 1, Imm: 0},
			{Op: isa.ADD, Rd: 3, Rs: 2, Rt: 2},
			{Op: isa.BNE, Rs: 3, Rt: 0, Imm: 1},
			{Op: isa.HALT},
		},
		Entry: 0,
		Data: []DataChunk{
			{Addr: 0x100000, Bytes: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		},
		Symbols: map[string]uint32{"arr": 0x100000},
		Labels:  map[string]int{"main": 0, "loop": 1},
		PThreads: []PThread{{
			DLoad:       1,
			Members:     []int{0, 1},
			LiveIns:     []isa.Reg{1},
			RegionStart: 0,
			RegionEnd:   3,
			DCycle:      42.5,
		}},
	}
}

func TestValidateAcceptsSample(t *testing.T) {
	if err := sampleProgram().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Program)
		want   string
	}{
		{"empty text", func(p *Program) { p.Text = nil }, "empty text"},
		{"bad entry", func(p *Program) { p.Entry = 99 }, "entry"},
		{"bad branch target", func(p *Program) { p.Text[3].Imm = 77 }, "out of range"},
		{"dload out of range", func(p *Program) { p.PThreads[0].DLoad = 99 }, "out of range"},
		{"dload not a load", func(p *Program) { p.PThreads[0].DLoad = 2; p.PThreads[0].Members = []int{0, 2} }, "not a load"},
		{"members unsorted", func(p *Program) { p.PThreads[0].Members = []int{1, 0} }, "not sorted"},
		{"dload not member", func(p *Program) { p.PThreads[0].Members = []int{0} }, "not a member"},
		{"member out of range", func(p *Program) { p.PThreads[0].Members = []int{1, 99} }, "out of range"},
		{"livein out of range", func(p *Program) { p.PThreads[0].LiveIns = []isa.Reg{200} }, "live-in"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := sampleProgram()
			c.mutate(p)
			err := p.Validate()
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestPThreadHasMember(t *testing.T) {
	pt := PThread{Members: []int{2, 5, 9}}
	for _, m := range []int{2, 5, 9} {
		if !pt.HasMember(m) {
			t.Errorf("HasMember(%d) = false", m)
		}
	}
	for _, m := range []int{0, 3, 10} {
		if pt.HasMember(m) {
			t.Errorf("HasMember(%d) = true", m)
		}
	}
	if pt.Size() != 3 {
		t.Errorf("Size = %d", pt.Size())
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	p := sampleProgram()
	b, err := Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != p.Name || q.Entry != p.Entry {
		t.Error("header mismatch")
	}
	if len(q.Text) != len(p.Text) {
		t.Fatalf("text length mismatch")
	}
	for i := range p.Text {
		if q.Text[i] != p.Text[i] {
			t.Fatalf("instr %d mismatch", i)
		}
	}
	if !bytes.Equal(q.Data[0].Bytes, p.Data[0].Bytes) || q.Data[0].Addr != p.Data[0].Addr {
		t.Error("data mismatch")
	}
	if q.Symbols["arr"] != 0x100000 || q.Labels["loop"] != 1 {
		t.Error("symbol/label mismatch")
	}
	pt, qt := p.PThreads[0], q.PThreads[0]
	if qt.DLoad != pt.DLoad || qt.DCycle != pt.DCycle ||
		qt.RegionStart != pt.RegionStart || qt.RegionEnd != pt.RegionEnd {
		t.Errorf("p-thread header mismatch: %+v vs %+v", qt, pt)
	}
	if len(qt.Members) != 2 || qt.Members[0] != 0 || len(qt.LiveIns) != 1 || qt.LiveIns[0] != 1 {
		t.Errorf("p-thread body mismatch: %+v", qt)
	}
}

func TestWriteToReadFrom(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTo(&buf, sampleProgram()); err != nil {
		t.Fatal(err)
	}
	q, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "sample" {
		t.Errorf("name = %q", q.Name)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("not a binary")); err == nil {
		t.Error("accepted bad magic")
	}
	b, _ := Marshal(sampleProgram())
	// Truncations at every prefix length must error, never panic.
	for n := 0; n < len(b); n += 7 {
		if _, err := Unmarshal(b[:n]); err == nil {
			t.Errorf("accepted truncation at %d bytes", n)
		}
	}
}

// TestUnmarshalFuzzCorruption flips random bytes and requires a clean error
// or a successful parse, never a panic.
func TestUnmarshalFuzzCorruption(t *testing.T) {
	orig, _ := Marshal(sampleProgram())
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := append([]byte(nil), orig...)
		for i := 0; i < 4; i++ {
			b[r.Intn(len(b))] ^= byte(1 << r.Intn(8))
		}
		_, _ = Unmarshal(b) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestClone(t *testing.T) {
	p := sampleProgram()
	c := p.Clone()
	c.Text[0].Imm = 7
	c.PThreads[0].Members[0] = 99
	c.Data[0].Bytes[0] = 0xFF
	c.Symbols["arr"] = 1
	if p.Text[0].Imm == 7 || p.PThreads[0].Members[0] == 99 ||
		p.Data[0].Bytes[0] == 0xFF || p.Symbols["arr"] == 1 {
		t.Error("Clone shares state with original")
	}
}

func TestLabelAt(t *testing.T) {
	p := sampleProgram()
	if name, ok := p.LabelAt(0); !ok || name != "main" {
		t.Errorf("LabelAt(0) = %q,%v", name, ok)
	}
	if _, ok := p.LabelAt(4); ok {
		t.Error("LabelAt(4) unexpectedly found")
	}
}
