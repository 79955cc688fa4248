package cost

// InstanceType describes one EC2 instance type from the paper's Table III.
//
// PerECULow/PerECUHigh are the paper's published millicent-per-ECU-second
// price range. Note that for m1.medium the paper's published range
// (4.44–6.39 mc) corresponds to dividing the hourly price by the vCPU
// count rather than the ECU count; we reproduce the paper's numbers
// verbatim because the evaluation's key driver — c1.medium being 4–5×
// cheaper per ECU-second than m1.medium — depends on them.
type InstanceType struct {
	Name      string
	VCPUs     int     // physical CPUs ("CPU" column)
	ECU       float64 // EC2 compute units
	MemGB     float64
	StorageGB float64
	PriceLow  Money // hourly instance price, low end
	PriceHigh Money // hourly instance price, high end

	PerECULow  Money // millicents per ECU-second, low end
	PerECUHigh Money // millicents per ECU-second, high end
}

// PerECUMid returns the midpoint ECU-second price, the default used by the
// simulator when a single number is needed.
func (t InstanceType) PerECUMid() Money {
	return (t.PerECULow + t.PerECUHigh) / 2
}

// Table III of the paper. One EC2 compute unit is the CPU capacity of a
// 1.0–1.2 GHz 2007 Opteron or Xeon.
var (
	M1Small = InstanceType{
		Name: "m1.small", VCPUs: 1, ECU: 1, MemGB: 1.7, StorageGB: 160,
		PriceLow: Dollars(0.08), PriceHigh: Dollars(0.12),
		PerECULow: Millicents(2.22), PerECUHigh: Millicents(3.33),
	}
	M1Medium = InstanceType{
		Name: "m1.medium", VCPUs: 1, ECU: 2, MemGB: 3.75, StorageGB: 410,
		PriceLow: Dollars(0.13), PriceHigh: Dollars(0.23),
		PerECULow: Millicents(4.44), PerECUHigh: Millicents(6.39),
	}
	C1Medium = InstanceType{
		Name: "c1.medium", VCPUs: 2, ECU: 5, MemGB: 1.7, StorageGB: 350,
		PriceLow: Dollars(0.17), PriceHigh: Dollars(0.23),
		PerECULow: Millicents(0.92), PerECUHigh: Millicents(1.28),
	}
)

// Catalog lists the instance types used in the paper's testbeds.
var Catalog = []InstanceType{M1Small, M1Medium, C1Medium}
