package cos

import (
	"fmt"
	"sort"

	"cos/internal/ofdm"
	"cos/internal/phy"
)

// RateEntry maps a measured-SNR floor to the silence budget sustainable at
// that SNR.
type RateEntry struct {
	// SNRdB is the lower edge of the entry's SNR band.
	SNRdB float64
	// SilencesPerPacket is the maximum number of silence symbols per packet
	// that keeps the packet reception rate at the target (99.3% in the
	// paper) in this band.
	SilencesPerPacket int
}

// RateTable is the lookup table of Sec. III-F: like 802.11 data-rate
// selection, the sender indexes it with the receiver's reported SNR to pick
// the control-message rate. Entries are kept sorted by SNR. A table is
// immutable, so one may be shared.
type RateTable struct {
	entries []RateEntry
}

// NewRateTable builds a table from entries (any order; sorted internally).
// At least one entry is required and silence budgets must be non-negative.
func NewRateTable(entries []RateEntry) (*RateTable, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("cos: empty rate table")
	}
	sorted := make([]RateEntry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].SNRdB < sorted[b].SNRdB })
	for i, e := range sorted {
		if e.SilencesPerPacket < 0 {
			return nil, fmt.Errorf("cos: negative silence budget %d", e.SilencesPerPacket)
		}
		if i > 0 && sorted[i].SNRdB == sorted[i-1].SNRdB {
			return nil, fmt.Errorf("cos: duplicate SNR entry %v", e.SNRdB)
		}
	}
	return &RateTable{entries: sorted}, nil
}

// Lookup returns the silence budget for the given measured SNR: the entry
// with the highest SNR floor not exceeding snrDB. Below every floor the
// fallback (most conservative) budget is returned.
func (t *RateTable) Lookup(snrDB float64) int {
	budget := t.Fallback()
	for _, e := range t.entries {
		if snrDB >= e.SNRdB {
			budget = e.SilencesPerPacket
		} else {
			break
		}
	}
	return budget
}

// Fallback returns the most conservative budget in the table — what the
// sender uses after a failed transmission, when no fresh channel feedback
// exists (Sec. III-F).
func (t *RateTable) Fallback() int {
	min := t.entries[0].SilencesPerPacket
	for _, e := range t.entries[1:] {
		if e.SilencesPerPacket < min {
			min = e.SilencesPerPacket
		}
	}
	return min
}

// DefaultRateTable returns a conservative, hand-set table. Entries are
// indexed by *measured* SNR — what the receiver reports. The sawtooth
// follows the data-rate bands: 1/2-coded modes leave far more spare
// redundancy than 3/4-coded ones (the paper's Fig. 9 ordering), so the
// budget drops at every switch into a 3/4 band. No program generates the
// rows; the measurement they must stay under is Fig. 9's maxBudgetAtPRR,
// the largest budget per mode and measured SNR that keeps PRR >= 0.993
// (internal/experiments).
func DefaultRateTable() *RateTable {
	t, err := NewRateTable([]RateEntry{
		{SNRdB: 4.0, SilencesPerPacket: 4},   // 6 Mb/s (BPSK,1/2)
		{SNRdB: 5.5, SilencesPerPacket: 2},   // 9 Mb/s (BPSK,3/4)
		{SNRdB: 7.1, SilencesPerPacket: 16},  // 12 Mb/s (QPSK,1/2)
		{SNRdB: 8.5, SilencesPerPacket: 32},  // deeper into the 12 Mb/s band
		{SNRdB: 9.5, SilencesPerPacket: 2},   // 18 Mb/s (QPSK,3/4)
		{SNRdB: 11.0, SilencesPerPacket: 4},  //
		{SNRdB: 12.0, SilencesPerPacket: 16}, // 24 Mb/s (16QAM,1/2)
		{SNRdB: 14.0, SilencesPerPacket: 32}, //
		{SNRdB: 16.0, SilencesPerPacket: 2},  // 36 Mb/s (16QAM,3/4)
		{SNRdB: 18.0, SilencesPerPacket: 4},  //
		{SNRdB: 19.5, SilencesPerPacket: 2},  // 48 Mb/s (64QAM,2/3)
		{SNRdB: 22.0, SilencesPerPacket: 2},  // 54 Mb/s (64QAM,3/4)
		{SNRdB: 24.0, SilencesPerPacket: 4},  //
	})
	if err != nil {
		// The literal table above is well-formed by construction.
		panic(err)
	}
	return t
}

// SilencesPerSecond converts a per-packet silence budget into the paper's
// Rm metric (silence symbols per second) for back-to-back transmission of
// psduLen-byte packets at the given mode (frame aggregation, as in the
// Fig. 9 measurement method).
func SilencesPerSecond(budget int, mode phy.Mode, psduLen int) float64 {
	symbols := mode.SymbolsForPSDU(psduLen)
	packetDur := float64(ofdm.PreambleLen+symbols*ofdm.SymbolLen) / ofdm.SampleRate
	return float64(budget) / packetDur
}
