// Package topology models the physical and logical structure of the Mira
// Blue Gene/Q system: 48 compute racks arranged in 3 rows of 16 columns,
// the midplane/node-board/node hierarchy, the air-cooled I/O rack rows, and
// the clock-signal dependency graph that turns single-rack coolant-monitor
// failures into system-wide outages.
package topology

import (
	"fmt"
	"strings"
)

// System-level constants of the Mira machine (paper §II).
const (
	// Rows of compute racks.
	Rows = 3
	// ColsPerRow is the number of compute racks per row.
	ColsPerRow = 16
	// NumRacks is the total number of compute racks.
	NumRacks = Rows * ColsPerRow
	// MidplanesPerRack is the allocation granularity of the scheduler.
	MidplanesPerRack = 2
	// NumMidplanes is the system-wide midplane count.
	NumMidplanes = NumRacks * MidplanesPerRack
	// NodeBoardsPerMidplane per the BG/Q design.
	NodeBoardsPerMidplane = 16
	// NodesPerBoard compute cards per node board.
	NodesPerBoard = 32
	// NodesPerMidplane = 512.
	NodesPerMidplane = NodeBoardsPerMidplane * NodesPerBoard
	// NodesPerRack = 1,024.
	NodesPerRack = MidplanesPerRack * NodesPerMidplane
	// TotalNodes = 49,152.
	TotalNodes = NumRacks * NodesPerRack
	// ActiveCoresPerNode: 16 of the 18 A2 cores run computation.
	ActiveCoresPerNode = 16
	// TotalCores = 786,432 active cores.
	TotalCores = TotalNodes * ActiveCoresPerNode
	// IONRacks is the number of air-cooled I/O forwarding-node racks (two
	// at the end of each row).
	IONRacks = 6
	// MaxHalls bounds the fleet size so a rack identity packs into a
	// uint16 wire code (hall byte + within-hall index byte).
	MaxHalls = 256
)

// RackID identifies a compute rack by row (0–2) and column (0–15). The paper
// writes racks as (row, column) with hexadecimal columns, e.g. (1, 8) or
// (0, D). A fleet deployment (several Mira-class machines feeding one store)
// qualifies the coordinates with a hall number; the zero Hall is the paper's
// single machine, so existing RackID literals and comparisons are unchanged.
type RackID struct {
	Row int
	Col int
	// Hall is the machine-hall number in a multi-hall fleet (0 for the
	// single-machine layout the paper studies).
	Hall int
}

// Valid reports whether the rack coordinates are on the floor of its hall.
func (r RackID) Valid() bool {
	return r.Row >= 0 && r.Row < Rows && r.Col >= 0 && r.Col < ColsPerRow &&
		r.Hall >= 0 && r.Hall < MaxHalls
}

// Index returns the dense within-hall index of the rack in [0, NumRacks).
// Fleet.GlobalIndex maps a rack to its fleet-wide shard index; everything
// that models a single machine (simulation, airflow, clock graph, analysis)
// keeps using the within-hall index.
func (r RackID) Index() int { return r.Row*ColsPerRow + r.Col }

// RackByIndex returns the hall-0 RackID for a dense index in [0, NumRacks).
// It panics on an out-of-range index (programmer error).
func RackByIndex(i int) RackID {
	if i < 0 || i >= NumRacks {
		panic(fmt.Sprintf("topology: rack index %d out of range", i))
	}
	return RackID{Row: i / ColsPerRow, Col: i % ColsPerRow}
}

// Code packs a valid rack identity into the fleet-wide uint16 wire code:
// high byte hall, low byte within-hall index. Numeric code order equals
// (hall, index) order, which is the fleet-wide shard order, so codes sort
// the same way merged scans do.
func (r RackID) Code() uint16 {
	return uint16(r.Hall)<<8 | uint16(r.Index())
}

// RackFromCode inverts Code. It errors on a low byte that is not a valid
// within-hall index (the hall byte is validated against a concrete Fleet by
// the caller, if it has one).
func RackFromCode(code uint16) (RackID, error) {
	idx := int(code & 0xFF)
	if idx >= NumRacks {
		return RackID{}, fmt.Errorf("topology: rack code %#04x has within-hall index %d out of range", code, idx)
	}
	r := RackByIndex(idx)
	r.Hall = int(code >> 8)
	return r, nil
}

// String renders the paper's (row, hex-column) notation, e.g. "(0,D)".
// Racks outside hall 0 carry a hall prefix, e.g. "h2(0,D)".
func (r RackID) String() string {
	if r.Hall != 0 {
		return fmt.Sprintf("h%d(%d,%c)", r.Hall, r.Row, hexDigit(r.Col))
	}
	return fmt.Sprintf("(%d,%c)", r.Row, hexDigit(r.Col))
}

func hexDigit(c int) byte {
	const digits = "0123456789ABCDEF"
	if c < 0 || c >= len(digits) {
		return '?'
	}
	return digits[c]
}

// ParseRackID parses the "(row,col)" notation, accepting hex column digits
// in either case, with an optional "h<hall>" prefix for fleet racks, e.g.
// "h2(1,4)".
func ParseRackID(s string) (RackID, error) {
	t := strings.TrimSpace(s)
	hall := 0
	if strings.HasPrefix(t, "h") || strings.HasPrefix(t, "H") {
		open := strings.IndexByte(t, '(')
		if open < 2 {
			return RackID{}, fmt.Errorf("topology: malformed rack id %q", s)
		}
		n := 0
		for _, c := range t[1:open] {
			if c < '0' || c > '9' {
				return RackID{}, fmt.Errorf("topology: bad hall in rack id %q", s)
			}
			n = n*10 + int(c-'0')
			if n >= MaxHalls {
				return RackID{}, fmt.Errorf("topology: hall out of range in rack id %q", s)
			}
		}
		hall = n
		t = t[open:]
	}
	t = strings.TrimPrefix(t, "(")
	t = strings.TrimSuffix(t, ")")
	parts := strings.Split(t, ",")
	if len(parts) != 2 {
		return RackID{}, fmt.Errorf("topology: malformed rack id %q", s)
	}
	rowStr := strings.TrimSpace(parts[0])
	colStr := strings.TrimSpace(parts[1])
	if len(rowStr) != 1 || rowStr[0] < '0' || rowStr[0] > '2' {
		return RackID{}, fmt.Errorf("topology: bad row in rack id %q", s)
	}
	if len(colStr) != 1 {
		return RackID{}, fmt.Errorf("topology: bad column in rack id %q", s)
	}
	col := strings.IndexByte("0123456789ABCDEF", colStr[0])
	if col < 0 {
		col = strings.IndexByte("0123456789abcdef", colStr[0])
	}
	if col < 0 {
		return RackID{}, fmt.Errorf("topology: bad column in rack id %q", s)
	}
	return RackID{Row: int(rowStr[0] - '0'), Col: col, Hall: hall}, nil
}

// AllRacks returns every compute rack in dense-index order.
func AllRacks() []RackID {
	out := make([]RackID, NumRacks)
	for i := range out {
		out[i] = RackByIndex(i)
	}
	return out
}

// RowRacks returns the racks of one row in column order.
func RowRacks(row int) []RackID {
	if row < 0 || row >= Rows {
		panic(fmt.Sprintf("topology: row %d out of range", row))
	}
	out := make([]RackID, ColsPerRow)
	for c := range out {
		out[c] = RackID{Row: row, Col: c}
	}
	return out
}

// Fleet parameterizes a deployment as halls × racks-per-hall. The zero
// value means the paper's single 48-rack machine (1 hall × NumRacks), so
// existing call sites that never mention halls keep their exact behavior.
// Racks within a hall are the first Racks entries of the Mira floor in
// dense-index order; every hall has the same layout.
type Fleet struct {
	// Halls is the number of machine halls (1..MaxHalls); 0 means 1.
	Halls int
	// Racks is the number of racks per hall (1..NumRacks); 0 means NumRacks.
	Racks int
}

// NewFleet builds the fleet of an explicitly given shape — command-line
// flags, where 0 is a mistake rather than "the default" it means in a zero
// Fleet — or reports which dimension is out of range.
func NewFleet(halls, racks int) (Fleet, error) {
	if halls < 1 || halls > MaxHalls {
		return Fleet{}, fmt.Errorf("topology: %d halls: want 1..%d", halls, MaxHalls)
	}
	if racks < 1 || racks > NumRacks {
		return Fleet{}, fmt.Errorf("topology: %d racks per hall: want 1..%d", racks, NumRacks)
	}
	return Fleet{Halls: halls, Racks: racks}, nil
}

// Norm returns f with zero fields replaced by the single-machine defaults.
// It panics on out-of-range values (programmer/flag-validation error).
func (f Fleet) Norm() Fleet {
	if f.Halls == 0 {
		f.Halls = 1
	}
	if f.Racks == 0 {
		f.Racks = NumRacks
	}
	if f.Halls < 1 || f.Halls > MaxHalls || f.Racks < 1 || f.Racks > NumRacks {
		panic(fmt.Sprintf("topology: fleet %d halls × %d racks out of range", f.Halls, f.Racks))
	}
	return f
}

// NumRacks is the fleet-wide rack (and store shard) count.
func (f Fleet) NumRacks() int {
	f = f.Norm()
	return f.Halls * f.Racks
}

// Contains reports whether r is a rack of this fleet.
func (f Fleet) Contains(r RackID) bool {
	f = f.Norm()
	return r.Valid() && r.Hall < f.Halls && r.Index() < f.Racks
}

// GlobalIndex returns the fleet-wide dense shard index of r, in
// [0, f.NumRacks()), ordered hall-major. The caller must ensure
// f.Contains(r).
func (f Fleet) GlobalIndex(r RackID) int {
	f = f.Norm()
	return r.Hall*f.Racks + r.Index()
}

// RackAt inverts GlobalIndex. It panics on an out-of-range index.
func (f Fleet) RackAt(global int) RackID {
	f = f.Norm()
	if global < 0 || global >= f.Halls*f.Racks {
		panic(fmt.Sprintf("topology: fleet rack index %d out of range", global))
	}
	r := RackByIndex(global % f.Racks)
	r.Hall = global / f.Racks
	return r
}

// AllRacks returns every fleet rack in GlobalIndex order.
func (f Fleet) AllRacks() []RackID {
	f = f.Norm()
	out := make([]RackID, f.NumRacks())
	for i := range out {
		out[i] = f.RackAt(i)
	}
	return out
}

// DistanceFromRowEnd returns how many racks separate r from the nearest end
// of its row (0 for the outermost racks). The paper attributes reduced
// underfloor airflow — and hence drier, warmer ambient conditions — to the
// last three or four racks on either side of each row.
func (r RackID) DistanceFromRowEnd() int {
	left := r.Col
	right := ColsPerRow - 1 - r.Col
	if left < right {
		return left
	}
	return right
}

// Well-known racks called out by the paper.
var (
	// ClockRoot is rack (1,4): all racks receive their clock signal through
	// it, so its failure takes down the entire system.
	ClockRoot = RackID{Row: 1, Col: 4}
	// ClockRelay0A is rack (0,A), which relays the clock to rack (0,9).
	ClockRelay0A = RackID{Row: 0, Col: 0xA}
	// ClockLeaf09 is rack (0,9), which has no clock card of its own.
	ClockLeaf09 = RackID{Row: 0, Col: 9}
	// HumidityHotspot is rack (1,8), the localized humidity hotspot in the
	// center of row 1 and the rack with the most CMFs (14).
	HumidityHotspot = RackID{Row: 1, Col: 8}
	// QuietRack is rack (2,7), the rack with the fewest CMFs (5).
	QuietRack = RackID{Row: 2, Col: 7}
	// HotRack is rack (0,D), the rack with the highest power consumption.
	HotRack = RackID{Row: 0, Col: 0xD}
	// BusyRack is rack (0,A), the rack with the highest utilization.
	BusyRack = RackID{Row: 0, Col: 0xA}
)

// ClockGraph is the clock-signal distribution tree. Every rack except the
// root receives its clock through its parent; when a rack goes down, its
// entire clock subtree loses the signal and fails with it.
type ClockGraph struct {
	parent map[RackID]RackID
}

// NewClockGraph builds Mira's clock tree: rack (1,4) is the source for the
// whole system, and rack (0,9) is chained through rack (0,A) (paper §VI-A).
func NewClockGraph() *ClockGraph {
	g := &ClockGraph{parent: make(map[RackID]RackID)}
	for _, r := range AllRacks() {
		if r == ClockRoot {
			continue
		}
		g.parent[r] = ClockRoot
	}
	g.parent[ClockLeaf09] = ClockRelay0A
	return g
}

// Parent returns the clock parent of r; ok is false for the root.
func (g *ClockGraph) Parent(r RackID) (RackID, bool) {
	p, ok := g.parent[r]
	return p, ok
}

// Dependents returns every rack whose clock signal passes through r
// (directly or transitively), excluding r itself. For the root this is all
// other racks.
func (g *ClockGraph) Dependents(r RackID) []RackID {
	var out []RackID
	for _, cand := range AllRacks() {
		if cand == r {
			continue
		}
		if g.dependsOn(cand, r) {
			out = append(out, cand)
		}
	}
	return out
}

// dependsOn reports whether the clock path of rack a passes through b.
func (g *ClockGraph) dependsOn(a, b RackID) bool {
	for {
		p, ok := g.parent[a]
		if !ok {
			return false
		}
		if p == b {
			return true
		}
		a = p
	}
}

// FailureDomain returns the set of racks that go down when r fails: r plus
// its clock dependents.
func (g *ClockGraph) FailureDomain(r RackID) []RackID {
	return append([]RackID{r}, g.Dependents(r)...)
}
