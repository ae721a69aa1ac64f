package main

// The recorded outputs the benchmark checks every run against. Counts
// here are exact: the simulator and the search are deterministic, so
// any change in them is a change in the work the program does.

// winner is a search result as the corpus check compares it.
type winner struct {
	T, P int
	Iter float64 // simulated iteration seconds, bit for bit
}

// expectedWinners is the winner of every search of the cold corpus,
// keyed env/nodes/group.
var expectedWinners = map[string]winner{
	"Ethernet/4n/g1":   {2, 2, 9.5016550814581624},
	"Ethernet/4n/g2":   {1, 2, 16.667687059190357},
	"Ethernet/4n/g3":   {2, 2, 33.221593348217738},
	"Ethernet/4n/g4":   {1, 2, 53.970113016926518},
	"Ethernet/6n/g1":   {2, 2, 7.2697222069885621},
	"Ethernet/6n/g2":   {2, 2, 11.998053529870299},
	"Ethernet/6n/g3":   {2, 2, 23.789044768325116},
	"Ethernet/6n/g4":   {2, 2, 38.191716566837542},
	"Ethernet/8n/g1":   {4, 2, 6.3382266136805034},
	"Ethernet/8n/g2":   {2, 2, 9.6195870495329352},
	"Ethernet/8n/g3":   {2, 2, 19.112624253668852},
	"Ethernet/8n/g4":   {2, 2, 29.859351534327729},
	"Hybrid/4n/g1":     {2, 2, 9.6802612404316069},
	"Hybrid/4n/g2":     {1, 2, 18.284812099007233},
	"Hybrid/4n/g3":     {1, 2, 30.496713142818919},
	"Hybrid/4n/g4":     {1, 2, 51.357213124574471},
	"Hybrid/6n/g1":     {2, 2, 6.5078061469494335},
	"Hybrid/6n/g2":     {1, 2, 12.547548898805756},
	"Hybrid/6n/g3":     {1, 2, 21.262211436613715},
	"Hybrid/6n/g4":     {1, 2, 35.158773633943646},
	"Hybrid/8n/g1":     {2, 2, 5.1420064875113942},
	"Hybrid/8n/g2":     {2, 2, 9.6819252568951288},
	"Hybrid/8n/g3":     {1, 2, 16.619673957550866},
	"Hybrid/8n/g4":     {1, 2, 27.069665114660943},
	"InfiniBand/4n/g1": {2, 1, 7.1004380630398192},
	"InfiniBand/4n/g2": {2, 1, 13.681597891428082},
	"InfiniBand/4n/g3": {2, 1, 27.818083581280423},
	"InfiniBand/4n/g4": {1, 1, 47.706240251018343},
	"InfiniBand/6n/g1": {2, 1, 4.9099989907747039},
	"InfiniBand/6n/g2": {2, 1, 9.2948376108663986},
	"InfiniBand/6n/g3": {2, 1, 18.883950585484442},
	"InfiniBand/6n/g4": {2, 1, 32.289533850315863},
	"InfiniBand/8n/g1": {2, 1, 3.8163569925766043},
	"InfiniBand/8n/g2": {2, 1, 7.1022622479787296},
	"InfiniBand/8n/g3": {2, 1, 14.41860079471709},
	"InfiniBand/8n/g4": {2, 1, 24.470255663560422},
	"RoCE/4n/g1":       {2, 2, 7.8746930089138427},
	"RoCE/4n/g2":       {2, 2, 14.692544156336142},
	"RoCE/4n/g3":       {2, 4, 29.524079656671042},
	"RoCE/4n/g4":       {1, 2, 49.697990125038217},
	"RoCE/6n/g1":       {2, 2, 5.6346055663305918},
	"RoCE/6n/g2":       {2, 2, 10.170508882333458},
	"RoCE/6n/g3":       {2, 2, 20.473554049772208},
	"RoCE/6n/g4":       {2, 2, 34.19282590484729},
	"RoCE/8n/g1":       {2, 2, 4.5192662258852074},
	"RoCE/8n/g2":       {2, 2, 7.9164149072957635},
	"RoCE/8n/g3":       {2, 2, 15.943925212214454},
	"RoCE/8n/g4":       {2, 2, 26.213868924627935},
}

// expectedCells are the corpus's candidate cells by outcome at search
// width 2 (searchWidth), the same at every GOMAXPROCS.
var expectedCells = cellCounts{simulated: 187, pruned: 155, aborted: 406, searches: 48}

// expectedCellsWidth1 are the same counts at search width 1, what an
// engine with the default width produces on a one-CPU host. They are
// the counts the BENCH_coldpath.json ledger recorded on such a host.
var expectedCellsWidth1 = cellCounts{simulated: 161, pruned: 157, aborted: 430, searches: 48}

// The layer probes' exact counts (they use a fixed seed): events the
// sim probe fires, events the netsim probe's flows take to drain, the
// ops of the pipeline probe's 1F1B schedules and their stage idle share.
const (
	expectedSimEvents    = 299919
	expectedNetsimEvents = 7963
	expectedPipelineOps  = 5120
	expectedIdleShare    = 0.58077061404984709
)
