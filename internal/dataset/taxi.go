package dataset

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"cdml/internal/data"
	"cdml/internal/model"
	"cdml/internal/pipeline"
)

// TaxiConfig parameterizes the Taxi-like stream.
type TaxiConfig struct {
	// Chunks is the number of chunks (the paper deploys 12,382 hourly
	// chunks over 18 months).
	Chunks int
	// HoursPerChunk is the wall-clock span of one chunk. The paper uses
	// one hour; scaled-down runs use larger spans so the stream still
	// covers the full 18 months of daily and weekly cycles.
	HoursPerChunk int
	// RowsPerChunk is the number of trips per chunk.
	RowsPerChunk int
	// AnomalyRate is the fraction of anomalous trips (zero distance,
	// >22h, or <10s) the anomaly detector must remove.
	AnomalyRate float64
	// Noise scales the multiplicative duration noise.
	Noise float64
	// Seed makes the stream reproducible.
	Seed int64
}

// DefaultTaxiConfig returns the scaled-down deployment scenario: 1,200
// hourly chunks of 200 trips.
func DefaultTaxiConfig() TaxiConfig {
	return TaxiConfig{
		Chunks:        1200,
		HoursPerChunk: 11, // ≈ 18 months over 1,200 chunks
		RowsPerChunk:  200,
		AnomalyRate:   0.02,
		Noise:         0.25,
		Seed:          7,
	}
}

// Taxi generates the Taxi-like stream of synthetic trips. Its distribution
// is stationary by design: the paper observes that sampling strategies tie
// on the Taxi dataset because its characteristics do not change over time.
type Taxi struct {
	cfg   TaxiConfig
	start time.Time
}

// NewTaxi returns a generator for the given config. The stream starts at
// 2015-02-01 00:00 UTC, the paper's deployment start.
func NewTaxi(cfg TaxiConfig) *Taxi {
	if cfg.Chunks <= 0 || cfg.RowsPerChunk <= 0 {
		panic(fmt.Sprintf("dataset: invalid Taxi config %+v", cfg))
	}
	if cfg.HoursPerChunk <= 0 {
		cfg.HoursPerChunk = 1
	}
	return &Taxi{cfg: cfg, start: time.Date(2015, 2, 1, 0, 0, 0, 0, time.UTC)}
}

// Name identifies the generator.
func (g *Taxi) Name() string { return "taxi" }

// NumChunks returns the total deployment chunk count.
func (g *Taxi) NumChunks() int { return g.cfg.Chunks }

// RowsPerChunk returns the configured chunk size.
func (g *Taxi) RowsPerChunk() int { return g.cfg.RowsPerChunk }

// speedKmh models NYC traffic: slower at rush hours and on weekdays.
func speedKmh(hour int, weekday time.Weekday) float64 {
	base := 22.0
	switch {
	case hour >= 7 && hour <= 9:
		base = 12
	case hour >= 16 && hour <= 19:
		base = 11
	case hour >= 23 || hour <= 5:
		base = 30
	}
	if weekday == time.Saturday || weekday == time.Sunday {
		base *= 1.25
	}
	return base
}

// Haversine returns the great-circle distance in kilometers between two
// (lat, lon) points in degrees — the Taxi pipeline's distance feature.
func Haversine(lat1, lon1, lat2, lon2 float64) float64 {
	return haversine(math.Cos(lat1*rad), math.Cos(lat2*rad), (lat2-lat1)*rad, (lon2-lon1)*rad)
}

// Bearing returns the initial compass bearing in degrees from point 1 to
// point 2 — the Taxi pipeline's direction feature.
func Bearing(lat1, lon1, lat2, lon2 float64) float64 {
	sinLat1, cosLat1 := math.Sincos(lat1 * rad)
	sinLat2, cosLat2 := math.Sincos(lat2 * rad)
	return bearing(sinLat1, cosLat1, sinLat2, cosLat2, (lon2-lon1)*rad)
}

// tripGeometry returns Haversine and Bearing of one trip from one sine and
// cosine of each latitude. math.Sincos is math.Sin and math.Cos bit for bit,
// so both values are the exported functions' exactly.
func tripGeometry(lat1, lon1, lat2, lon2 float64) (km, deg float64) {
	sinLat1, cosLat1 := math.Sincos(lat1 * rad)
	sinLat2, cosLat2 := math.Sincos(lat2 * rad)
	dLon := (lon2 - lon1) * rad
	return haversine(cosLat1, cosLat2, (lat2-lat1)*rad, dLon), bearing(sinLat1, cosLat1, sinLat2, cosLat2, dLon)
}

// rad converts degrees to radians.
const rad = math.Pi / 180

// haversine is the haversine formula over the two latitudes' cosines and the
// latitude and longitude deltas in radians.
func haversine(cosLat1, cosLat2, dLat, dLon float64) float64 {
	const R = 6371.0
	sinHalfDLat, sinHalfDLon := math.Sin(dLat/2), math.Sin(dLon/2)
	a := sinHalfDLat*sinHalfDLat + cosLat1*cosLat2*sinHalfDLon*sinHalfDLon
	return 2 * R * math.Asin(math.Min(1, math.Sqrt(a)))
}

// bearing is the initial-bearing formula over the two latitudes' sines and
// cosines and the longitude delta in radians.
func bearing(sinLat1, cosLat1, sinLat2, cosLat2, dLon float64) float64 {
	sinDLon, cosDLon := math.Sincos(dLon)
	y := sinDLon * cosLat2
	x := cosLat1*sinLat2 - sinLat1*cosLat2*cosDLon
	deg := math.Atan2(y, x) / rad
	return math.Mod(deg+360, 360)
}

const taxiTimeLayout = "2006-01-02 15:04:05"

// Chunk generates the raw CSV records of hour-chunk i:
//
//	pickup_datetime,dropoff_datetime,pickup_lon,pickup_lat,dropoff_lon,dropoff_lat,passenger_count
func (g *Taxi) Chunk(i int) [][]byte {
	if i < 0 || i >= g.cfg.Chunks {
		panic(fmt.Sprintf("dataset: Taxi chunk %d out of range [0,%d)", i, g.cfg.Chunks))
	}
	r := rand.New(rand.NewSource(g.cfg.Seed ^ (0x517cc1b7 * int64(i+1))))
	span := time.Duration(g.cfg.HoursPerChunk) * time.Hour
	chunkStart := g.start.Add(time.Duration(i) * span)
	// One buffer a chunk, cut into records at the end; a row is ~85 bytes.
	buf := make([]byte, 0, g.cfg.RowsPerChunk*88)
	ends := make([]int, g.cfg.RowsPerChunk)
	for row := range ends {
		pickup := chunkStart.Add(time.Duration(r.Int63n(int64(span))))
		pLat := 40.75 + 0.05*r.NormFloat64()
		pLon := -73.98 + 0.05*r.NormFloat64()
		dLat := pLat + 0.03*r.NormFloat64()
		dLon := pLon + 0.03*r.NormFloat64()
		pax := 1 + r.Intn(5)

		dist := Haversine(pLat, pLon, dLat, dLon)
		speed := speedKmh(pickup.Hour(), pickup.Weekday())
		durSec := 60 + dist/speed*3600
		durSec *= math.Exp(g.cfg.Noise * r.NormFloat64())

		// Injected anomalies for the anomaly detector to remove.
		if r.Float64() < g.cfg.AnomalyRate {
			switch r.Intn(3) {
			case 0: // the car never moved
				dLat, dLon = pLat, pLon
				durSec = 300 + 3000*r.Float64()
			case 1: // forgotten meter: longer than 22 hours
				durSec = 23*3600 + r.Float64()*5*3600
			default: // accidental start: under 10 seconds
				durSec = 1 + 8*r.Float64()
			}
		}
		dropoff := pickup.Add(time.Duration(durSec * float64(time.Second)))

		buf = pickup.AppendFormat(buf, taxiTimeLayout)
		buf = dropoff.AppendFormat(append(buf, ','), taxiTimeLayout)
		for _, v := range [...]float64{pLon, pLat, dLon, dLat} {
			buf = appendFixed(append(buf, ','), v, 6)
		}
		buf = strconv.AppendInt(append(buf, ','), int64(pax), 10)
		ends[row] = len(buf)
	}
	return cutRecords(buf, ends)
}

// taxiParser parses trip records, computing the actual trip duration from
// the pickup and dropoff times (the paper's input parser does exactly
// this). Output columns: float "pickup_lat", "pickup_lon", "dropoff_lat",
// "dropoff_lon", "passengers", "pickup_unix", "duration" (seconds), and
// "label" = log1p(duration) — the regression target in RMSLE space.
type taxiParser struct{}

// Name implements pipeline.Parser.
func (taxiParser) Name() string { return "taxi-parser" }

// Parse implements pipeline.Parser; malformed records — a wrong field count,
// an unparseable time, a non-numeric or non-finite number, a dropoff before
// the pickup — are dropped. Fields are scanned in place.
func (taxiParser) Parse(records [][]byte) (*data.Frame, error) {
	n := len(records)
	pLat := make([]float64, 0, n)
	pLon := make([]float64, 0, n)
	dLat := make([]float64, 0, n)
	dLon := make([]float64, 0, n)
	pax := make([]float64, 0, n)
	unix := make([]float64, 0, n)
	dur := make([]float64, 0, n)
	label := make([]float64, 0, n)
	for _, rec := range records {
		if bytes.Count(rec, comma) != 6 {
			continue
		}
		field, rest := cutField(rec, ',')
		pickup, ok1 := parseTaxiTime(field)
		field, rest = cutField(rest, ',')
		dropoff, ok2 := parseTaxiTime(field)
		if !ok1 || !ok2 {
			continue
		}
		var vals [5]float64
		ok := true
		for k := range vals {
			field, rest = cutField(rest, ',')
			if vals[k], ok = parseFinite(field); !ok {
				break
			}
		}
		if !ok {
			continue
		}
		d := dropoff.Sub(pickup).Seconds()
		if d < 0 {
			continue
		}
		pLon = append(pLon, vals[0])
		pLat = append(pLat, vals[1])
		dLon = append(dLon, vals[2])
		dLat = append(dLat, vals[3])
		pax = append(pax, vals[4])
		unix = append(unix, float64(pickup.Unix()))
		dur = append(dur, d)
		label = append(label, math.Log1p(d))
	}
	f := data.NewFrame(len(label))
	f.SetFloat("pickup_lat", pLat)
	f.SetFloat("pickup_lon", pLon)
	f.SetFloat("dropoff_lat", dLat)
	f.SetFloat("dropoff_lon", dLon)
	f.SetFloat("passengers", pax)
	f.SetFloat("pickup_unix", unix)
	f.SetFloat("duration", dur)
	f.SetFloat("label", label)
	return f, nil
}

// parseTaxiTime parses a taxiTimeLayout timestamp. The canonical 19-byte
// shape with every field in range is decoded by integer arithmetic; anything
// else goes through time.Parse, so the accepted set — one-digit hours,
// fractional seconds and all — is time.Parse's.
func parseTaxiTime(b []byte) (time.Time, bool) {
	if sec, ok := canonicalTaxiTime(b); ok {
		return time.Unix(sec, 0).UTC(), true
	}
	t, err := time.Parse(taxiTimeLayout, string(b))
	return t, err == nil
}

// canonicalTaxiTime decodes "YYYY-MM-DD hh:mm:ss" into Unix seconds. It
// reports false for any other shape and for any field out of its calendar
// range; it never accepts what time.Parse would reject.
func canonicalTaxiTime(b []byte) (unix int64, ok bool) {
	if len(b) != len(taxiTimeLayout) || b[4] != '-' || b[7] != '-' || b[10] != ' ' || b[13] != ':' || b[16] != ':' {
		return 0, false
	}
	century, yy, month, day := twoDigits(b, 0), twoDigits(b, 2), twoDigits(b, 5), twoDigits(b, 8)
	hour, minute, sec := twoDigits(b, 11), twoDigits(b, 14), twoDigits(b, 17)
	if century > 99 || yy > 99 {
		return 0, false
	}
	year := century*100 + yy
	if month < 1 || month > 12 || day < 1 || day > daysIn(month, year) || hour > 23 || minute > 59 || sec > 59 {
		return 0, false
	}
	return int64(daysFromCivil(year, month, day))*86400 + int64(hour*3600+minute*60+sec), true
}

// twoDigits decodes the ASCII digits b[i] and b[i+1]. A non-digit makes it
// 100, out of every field's range.
func twoDigits(b []byte, i int) int {
	hi, lo := b[i]-'0', b[i+1]-'0'
	if hi > 9 || lo > 9 {
		return 100
	}
	return int(hi)*10 + int(lo)
}

func daysIn(month, year int) int {
	switch month {
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	case 4, 6, 9, 11:
		return 30
	}
	return 31
}

// daysFromCivil returns the days from 1970-01-01 to the given date of the
// proleptic Gregorian calendar (the calendar package time uses).
func daysFromCivil(y, m, d int) int {
	if m <= 2 {
		y--
	}
	era := y / 400
	if y < 0 {
		era = (y - 399) / 400
	}
	yoe := y - era*400                     // [0, 399]
	mp := (m + 9) % 12                     // March = 0
	doy := (153*mp+2)/5 + d - 1            // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	return era*146097 + doe - 719468
}

// taxiFeatureExtractor is the Taxi pipeline's feature-extraction component:
// from the parsed trip it derives the haversine distance, the bearing, the
// hour of the day, and the day of the week (paper §5.1). It is stateless.
type taxiFeatureExtractor struct{}

// Name implements pipeline.Component.
func (taxiFeatureExtractor) Name() string { return "taxi-feature-extractor" }

// Stateless implements pipeline.Component.
func (taxiFeatureExtractor) Stateless() bool { return true }

// Update implements pipeline.Component (no statistics).
func (taxiFeatureExtractor) Update(f *data.Frame) error { return nil }

// Snapshot implements pipeline.Component: stateless, shares itself.
func (x taxiFeatureExtractor) Snapshot() pipeline.Component { return x }

var weekdayNames = [...]string{"sun", "mon", "tue", "wed", "thu", "fri", "sat"}

// Transform implements pipeline.Component.
func (taxiFeatureExtractor) Transform(f *data.Frame) (*data.Frame, error) {
	n := f.Rows()
	pLat := f.Float("pickup_lat")
	pLon := f.Float("pickup_lon")
	dLat := f.Float("dropoff_lat")
	dLon := f.Float("dropoff_lon")
	unix := f.Float("pickup_unix")
	dist := make([]float64, n)
	bear := make([]float64, n)
	hour := make([]float64, n)
	dow := make([]string, n)
	for i := 0; i < n; i++ {
		dist[i], bear[i] = tripGeometry(pLat[i], pLon[i], dLat[i], dLon[i])
		t := time.Unix(int64(unix[i]), 0).UTC()
		hour[i] = float64(t.Hour())
		dow[i] = weekdayNames[int(t.Weekday())]
	}
	g := f.ShallowCopy()
	g.SetFloat("dist_km", dist)
	g.SetFloat("bearing", bear)
	g.SetFloat("hour", hour)
	g.SetString("dow", dow)
	return g, nil
}

// newTaxiAnomalyFilter returns the paper's anomaly detector: it drops trips
// longer than 22 hours, shorter than 10 seconds, or with zero distance.
func newTaxiAnomalyFilter() *pipeline.Filter {
	return pipeline.NewFilter("anomaly-detector", func(f *data.Frame, i int) bool {
		d := f.Float("duration")[i]
		if d > 22*3600 || d < 10 {
			return false
		}
		return f.Float("dist_km")[i] > 0
	})
}

// TaxiFeatureDim is the assembled feature dimensionality of the Taxi
// pipeline: 4 scaled numerics + 8 one-hot day-of-week slots (close to the
// paper's 11 features).
const TaxiFeatureDim = 4 + 8

// NewTaxiPipeline constructs the paper's Taxi pipeline: input parser →
// feature extractor → anomaly detector → standard scaler → day-of-week
// one-hot → assembler. The linear regression model is created separately
// with NewTaxiModel.
func NewTaxiPipeline() *pipeline.Pipeline {
	numCols := []string{"dist_km", "bearing", "hour", "passengers"}
	return pipeline.New(taxiParser{},
		taxiFeatureExtractor{},
		newTaxiAnomalyFilter(),
		pipeline.NewStandardScaler(numCols),
		pipeline.NewOneHotEncoder("dow", "dow_vec", 8),
		pipeline.NewAssembler(numCols, []string{"dow_vec"}, "features"),
	)
}

// NewTaxiModel constructs the Taxi pipeline's linear regression. Its target
// is log1p(duration), so RMSE over (prediction, label) equals RMSLE over
// durations — the Kaggle competition's error measure.
func NewTaxiModel(reg float64) *model.LinearRegression {
	return model.NewLinearRegression(TaxiFeatureDim, reg)
}
