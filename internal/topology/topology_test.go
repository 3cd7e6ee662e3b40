package topology

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestConstants(t *testing.T) {
	if NumRacks != 48 {
		t.Errorf("NumRacks = %d", NumRacks)
	}
	if NodesPerRack != 1024 {
		t.Errorf("NodesPerRack = %d", NodesPerRack)
	}
	if TotalNodes != 49152 {
		t.Errorf("TotalNodes = %d", TotalNodes)
	}
	if TotalCores != 786432 {
		t.Errorf("TotalCores = %d", TotalCores)
	}
	if NodesPerMidplane != 512 {
		t.Errorf("NodesPerMidplane = %d", NodesPerMidplane)
	}
	if NumMidplanes != 96 {
		t.Errorf("NumMidplanes = %d", NumMidplanes)
	}
	if IONRacks != 6 {
		t.Errorf("IONRacks = %d", IONRacks)
	}
}

func TestRackIDIndexRoundTrip(t *testing.T) {
	for i := 0; i < NumRacks; i++ {
		r := RackByIndex(i)
		if !r.Valid() {
			t.Fatalf("RackByIndex(%d) = %v invalid", i, r)
		}
		if r.Index() != i {
			t.Fatalf("round trip failed: %d -> %v -> %d", i, r, r.Index())
		}
	}
}

func TestRackByIndexPanics(t *testing.T) {
	for _, i := range []int{-1, 48, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RackByIndex(%d) should panic", i)
				}
			}()
			RackByIndex(i)
		}()
	}
}

func TestRackIDString(t *testing.T) {
	cases := []struct {
		r    RackID
		want string
	}{
		{RackID{Row: 0, Col: 13}, "(0,D)"},
		{RackID{Row: 1, Col: 8}, "(1,8)"},
		{RackID{Row: 2, Col: 7}, "(2,7)"},
		{RackID{Row: 0, Col: 10}, "(0,A)"},
		{RackID{Row: 1, Col: 4}, "(1,4)"},
		{RackID{Row: 0, Col: 13, Hall: 2}, "h2(0,D)"},
		{RackID{Row: 1, Col: 4, Hall: 17}, "h17(1,4)"},
	}
	for _, tc := range cases {
		if got := tc.r.String(); got != tc.want {
			t.Errorf("String(%+v) = %q, want %q", tc.r, got, tc.want)
		}
	}
}

func TestParseRackID(t *testing.T) {
	for _, s := range []string{"(0,D)", "(1,8)", "(2,f)", " (0, A) ", "h3(1,8)", "h255(0,0)"} {
		r, err := ParseRackID(s)
		if err != nil {
			t.Errorf("ParseRackID(%q): %v", s, err)
			continue
		}
		if !r.Valid() {
			t.Errorf("ParseRackID(%q) = %v invalid", s, r)
		}
	}
	for _, s := range []string{"", "(3,0)", "(0,G)", "(0)", "0,1,2", "h(0,0)", "hx(0,0)", "h256(0,0)"} {
		if _, err := ParseRackID(s); err == nil {
			t.Errorf("ParseRackID(%q) should fail", s)
		}
	}
	if r, err := ParseRackID("h3(1,8)"); err != nil || r != (RackID{Row: 1, Col: 8, Hall: 3}) {
		t.Errorf("ParseRackID(h3(1,8)) = %v, %v", r, err)
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	f := func(i, h uint) bool {
		r := RackByIndex(int(i % NumRacks))
		r.Hall = int(h % MaxHalls)
		parsed, err := ParseRackID(r.String())
		return err == nil && parsed == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRackCodeRoundTrip(t *testing.T) {
	for _, r := range []RackID{
		{Row: 0, Col: 0},
		{Row: 2, Col: 15},
		{Row: 1, Col: 4, Hall: 3},
		{Row: 0, Col: 13, Hall: 255},
	} {
		got, err := RackFromCode(r.Code())
		if err != nil || got != r {
			t.Errorf("RackFromCode(Code(%v)) = %v, %v", r, got, err)
		}
	}
	// Hall-0 codes equal the plain within-hall index, preserving the v1
	// wire encoding's rack byte.
	if c := (RackID{Row: 0, Col: 13}).Code(); c != 13 {
		t.Errorf("hall-0 code = %d, want 13", c)
	}
	if _, err := RackFromCode(0x0130); err == nil {
		t.Error("RackFromCode should reject within-hall index 48")
	}
}

// TestNewFleet: the flag-facing constructor accepts exactly the shapes Norm
// accepts, minus the zero defaults, and names the offending dimension.
func TestNewFleet(t *testing.T) {
	cases := []struct {
		halls, racks int
		wantErr      string // "" = accepted
	}{
		{1, NumRacks, ""},
		{MaxHalls, 1, ""},
		{4, 8, ""},
		{0, NumRacks, "0 halls"},
		{-1, NumRacks, "-1 halls"},
		{MaxHalls + 1, NumRacks, "halls"},
		{1, 0, "0 racks per hall"},
		{1, -3, "-3 racks per hall"},
		{1, NumRacks + 1, "racks per hall"},
		{0, 0, "0 halls"},
	}
	for _, tc := range cases {
		f, err := NewFleet(tc.halls, tc.racks)
		if tc.wantErr == "" {
			if err != nil || f != (Fleet{Halls: tc.halls, Racks: tc.racks}) || f.Norm() != f {
				t.Errorf("NewFleet(%d, %d) = %+v, %v; want that shape", tc.halls, tc.racks, f, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("NewFleet(%d, %d) = %+v, %v; want an error naming %q", tc.halls, tc.racks, f, err, tc.wantErr)
		}
	}
}

func TestFleet(t *testing.T) {
	var zero Fleet
	if zero.NumRacks() != NumRacks {
		t.Errorf("zero fleet racks = %d", zero.NumRacks())
	}
	if got := zero.Norm(); got.Halls != 1 || got.Racks != NumRacks {
		t.Errorf("zero fleet norm = %+v", got)
	}
	f := Fleet{Halls: 4, Racks: 48}
	if f.NumRacks() != 192 {
		t.Fatalf("fleet racks = %d", f.NumRacks())
	}
	for g := 0; g < f.NumRacks(); g++ {
		r := f.RackAt(g)
		if !f.Contains(r) {
			t.Fatalf("RackAt(%d) = %v not contained", g, r)
		}
		if f.GlobalIndex(r) != g {
			t.Fatalf("GlobalIndex(RackAt(%d)) = %d", g, f.GlobalIndex(r))
		}
	}
	if f.Contains(RackID{Row: 0, Col: 0, Hall: 4}) {
		t.Error("hall 4 should be outside a 4-hall fleet")
	}
	small := Fleet{Halls: 2, Racks: 8}
	if small.Contains(RackID{Row: 0, Col: 8}) {
		t.Error("within-hall index 8 should be outside an 8-rack hall")
	}
	if n, first, r48 := f.NumRacks(), f.RackAt(0), f.RackAt(48); n != 192 || first != (RackID{}) || r48.Hall != 1 {
		t.Errorf("fleet racks: n=%d first=%v [48]=%v", n, first, r48)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range fleet should panic on Norm")
		}
	}()
	Fleet{Halls: MaxHalls + 1}.Norm()
}

func TestAllRacksAndRows(t *testing.T) {
	all := AllRacks()
	if len(all) != NumRacks {
		t.Fatalf("AllRacks len = %d", len(all))
	}
	seen := make(map[RackID]bool)
	for _, r := range all {
		if seen[r] {
			t.Fatalf("duplicate rack %v", r)
		}
		seen[r] = true
	}
	row1 := RowRacks(1)
	if len(row1) != ColsPerRow {
		t.Fatalf("RowRacks len = %d", len(row1))
	}
	for c, r := range row1 {
		if r.Row != 1 || r.Col != c {
			t.Errorf("RowRacks[1][%d] = %v", c, r)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("RowRacks(3) should panic")
		}
	}()
	RowRacks(3)
}

func TestDistanceFromRowEnd(t *testing.T) {
	cases := []struct {
		col, want int
	}{
		{0, 0}, {15, 0}, {1, 1}, {14, 1}, {7, 7}, {8, 7},
	}
	for _, tc := range cases {
		r := RackID{Row: 0, Col: tc.col}
		if got := r.DistanceFromRowEnd(); got != tc.want {
			t.Errorf("DistanceFromRowEnd(col=%d) = %d, want %d", tc.col, got, tc.want)
		}
	}
}

func TestWellKnownRacks(t *testing.T) {
	if ClockRoot.String() != "(1,4)" {
		t.Errorf("ClockRoot = %v", ClockRoot)
	}
	if HumidityHotspot.String() != "(1,8)" {
		t.Errorf("HumidityHotspot = %v", HumidityHotspot)
	}
	if HotRack.String() != "(0,D)" {
		t.Errorf("HotRack = %v", HotRack)
	}
	if BusyRack.String() != "(0,A)" {
		t.Errorf("BusyRack = %v", BusyRack)
	}
	if QuietRack.String() != "(2,7)" {
		t.Errorf("QuietRack = %v", QuietRack)
	}
}

func TestClockGraphRoot(t *testing.T) {
	g := NewClockGraph()
	if _, ok := g.Parent(ClockRoot); ok {
		t.Error("root should have no parent")
	}
	// Paper: if rack (1,4) fails, the entire system fails.
	dom := g.FailureDomain(ClockRoot)
	if len(dom) != NumRacks {
		t.Errorf("root failure domain = %d racks, want all %d", len(dom), NumRacks)
	}
}

func TestClockGraphRelay(t *testing.T) {
	g := NewClockGraph()
	// Paper: rack (0,9) gets its clock through rack (0,A).
	p, ok := g.Parent(ClockLeaf09)
	if !ok || p != ClockRelay0A {
		t.Errorf("parent of (0,9) = %v, want (0,A)", p)
	}
	dom := g.FailureDomain(ClockRelay0A)
	if len(dom) != 2 {
		t.Fatalf("(0,A) failure domain = %v, want itself and (0,9)", dom)
	}
	found := false
	for _, r := range dom {
		if r == ClockLeaf09 {
			found = true
		}
	}
	if !found {
		t.Error("(0,9) should fail when (0,A) fails")
	}
}

func TestClockGraphLeaf(t *testing.T) {
	g := NewClockGraph()
	// An ordinary rack takes only itself down.
	dom := g.FailureDomain(RackID{Row: 2, Col: 3})
	if len(dom) != 1 {
		t.Errorf("leaf failure domain = %v, want only itself", dom)
	}
	// (0,9) is a leaf too.
	if dom := g.FailureDomain(ClockLeaf09); len(dom) != 1 {
		t.Errorf("(0,9) failure domain = %v", dom)
	}
}

func TestClockGraphEveryRackDependsOnRoot(t *testing.T) {
	g := NewClockGraph()
	deps := g.Dependents(ClockRoot)
	if len(deps) != NumRacks-1 {
		t.Errorf("root dependents = %d, want %d", len(deps), NumRacks-1)
	}
}
