package cost

// BlockMB is the HDFS block size in megabytes, as used throughout the
// paper (64 MB blocks).
const BlockMB = 64.0

// Amazon's published data transfer price from the paper: $0.01 per GB
// between availability zones, i.e. 62.5 millicents per 64 MB block.
// Transfers within an availability zone are free of charge.
var (
	InterZonePerGB    = Dollars(0.01)
	InterZonePerBlock = InterZonePerGB.MulFloat(BlockMB / 1024) // 62.5 millicents
)

// TransferPricing prices data movement between availability zones.
// Prices are per gigabyte; fractional-megabyte amounts are rounded to the
// nearest microcent at charge time.
type TransferPricing struct {
	IntraZonePerGB Money
	InterZonePerGB Money
}

// DefaultTransferPricing is Amazon's EC2 pricing from the paper: free
// within a zone, $0.01/GB across zones.
func DefaultTransferPricing() TransferPricing {
	return TransferPricing{IntraZonePerGB: 0, InterZonePerGB: InterZonePerGB}
}

// PerGB returns the per-gigabyte price of moving data between two zones.
func (t TransferPricing) PerGB(zoneA, zoneB string) Money {
	if zoneA == zoneB {
		return t.IntraZonePerGB
	}
	return t.InterZonePerGB
}

// CPUCost returns the dollar cost of cpuSec ECU-seconds at the given
// per-ECU-second price.
func CPUCost(perECUSec Money, cpuSec float64) Money {
	return perECUSec.MulFloat(cpuSec)
}
