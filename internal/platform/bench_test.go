package platform

import "testing"

var benchTable *SwitchTable

// BenchmarkMeasureSwitchTable times one Fig 11 table as dvfsd and
// replay measure it: the a7's 156 transitions, 500 draws each, q 0.95.
func BenchmarkMeasureSwitchTable(b *testing.B) {
	p := ODROIDXU3A7()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchTable = MeasureSwitchTable(p, 500, 0.95, 97)
	}
}
