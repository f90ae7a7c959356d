// Dimension-analysis fixtures: each marked line mixes dimensions the way a
// real clock-domain bug would, and unitcheck must flag exactly the
// diagnostic its want comment names. The test's declaration table seeds
// FreqGHz (GHz), toCycles/toNS/hopCycles (conversion signatures),
// Timing.* (cycles), and Link.PortNS (ns); its stale entries (a field and
// a function that do not exist) are reported on the package clause.
package unitfix // want `entry unitfix\.Link\.RetryCycles names no declared object` `entry unitfix\.gone names no declared object`

// Link stands in for a CXL-ish link config: PortNS is table-seeded ns;
// readyAt is dimensioned by annotation.
type Link struct {
	PortNS  float64
	readyAt int64 //lint:unit cycles
}

// Timing stands in for the DDR timing table (all cycles via the wildcard).
type Timing struct {
	RCD int64
	RP  int64
}

const FreqGHz = 2.4

func toCycles(ns float64) int64 { return int64(ns*FreqGHz + 0.5) }

func toNS(cycles int64) float64 { return float64(cycles) / FreqGHz }

func addMismatch(now int64, l Link) int64 {
	return now + int64(l.PortNS) // want `cross-dimension arithmetic: cycles \+ ns`
}

func compareMismatch(now int64, l Link) bool {
	return float64(now) < l.PortNS // want `comparing cycles to ns`
}

func latencyProduct(t Timing, l Link) float64 {
	return float64(t.RCD) * l.PortNS // want `multiplying two latencies \(cycles \* ns\)`
}

func argMismatch(t Timing) int64 {
	return toCycles(float64(t.RCD)) // want `argument 1 to toCycles is cycles, parameter is declared ns`
}

func fieldMismatch(l *Link) {
	l.readyAt = int64(l.PortNS) // want `assigning ns to field readyAt, which is declared cycles`
}

func localNameMismatch(l Link) {
	portCycles := int64(l.PortNS) // want `portCycles is assigned ns, but its name suggests cycles`
	_ = portCycles
}

// hopCycles is pinned "-> cycles" by the declaration table.
func hopCycles(l Link) int64 {
	return int64(l.PortNS) // want `return of ns: hopCycles is declared to return cycles`
}

func compositeMismatch(now int64) Link {
	return Link{PortNS: float64(now)} // want `field Link.PortNS is declared ns, got cycles`
}

func minMismatch(now int64, l Link) int64 {
	return min(now, int64(l.PortNS)) // want `min/max across dimensions: cycles vs ns`
}

// loopMismatch exercises the fixpoint: acc's dimension must survive the
// loop's join to be compared against readyAt after it.
func loopMismatch(n int, l Link) float64 {
	acc := toNS(l.readyAt)
	for i := 0; i < n; i++ {
		acc += l.PortNS
	}
	return acc + float64(l.readyAt) // want `cross-dimension arithmetic: ns \+ cycles`
}

// inferMismatch consumes a result dimension the analyzer inferred (doubleRCD
// has no table entry or annotation; its body makes it cycles).
func doubleRCD(t Timing) int64 { return 2 * t.RCD }

func inferMismatch(t Timing, l Link) float64 {
	return float64(doubleRCD(t)) + l.PortNS // want `cross-dimension arithmetic: cycles \+ ns`
}

type badAnnotated struct {
	x int64 //lint:unit parsecs // want `bad //lint:unit annotation`
}

//lint:nonsense no such directive exists // want `unknown directive //lint:nonsense`

//lint:ignore nosuchanalyzer with a reason // want `//lint:ignore must name an analyzer`
