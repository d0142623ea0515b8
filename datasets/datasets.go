// Package datasets exposes the synthetic workload generators that stand in
// for the paper's evaluation datasets (see DESIGN.md, Substitutions):
//
//   - URL: a sparse, high-dimensional, gradually drifting binary
//     classification stream in the spirit of the malicious-URL dataset,
//     together with its parser → token hasher → imputer → scaler →
//     numeric fold pipeline and SVM model.
//   - Taxi: a dense, stationary regression stream of synthetic NYC-like
//     taxi trips, together with its parser → feature-extractor →
//     anomaly-filter → scaler → one-hot → assembler pipeline and linear
//     regression model.
//
// Both generators satisfy cdml.Stream and are deterministic per seed.
package datasets

import (
	"cdml/internal/dataset"
	"cdml/internal/model"
	"cdml/internal/pipeline"
)

// URLConfig parameterizes the URL-like stream.
type URLConfig = dataset.URLConfig

// URL generates the URL-like stream.
type URL = dataset.URL

// DefaultURLConfig returns the scaled-down URL deployment scenario.
func DefaultURLConfig() URLConfig { return dataset.DefaultURLConfig() }

// NewURL returns a URL stream generator.
func NewURL(cfg URLConfig) *URL { return dataset.NewURL(cfg) }

// NewURLPipeline constructs the URL pipeline (parser → feature hasher over
// the tokens → imputer → standard scaler → feature hasher folding the scaled
// numerics into the hashed tokens).
func NewURLPipeline(hashDim int) *pipeline.Pipeline { return dataset.NewURLPipeline(hashDim) }

// NewURLModel constructs the URL pipeline's SVM.
func NewURLModel(hashDim int, reg float64) *model.SVM { return dataset.NewURLModel(hashDim, reg) }

// TaxiConfig parameterizes the Taxi-like stream.
type TaxiConfig = dataset.TaxiConfig

// Taxi generates the Taxi-like stream.
type Taxi = dataset.Taxi

// DefaultTaxiConfig returns the scaled-down Taxi deployment scenario.
func DefaultTaxiConfig() TaxiConfig { return dataset.DefaultTaxiConfig() }

// NewTaxi returns a Taxi stream generator.
func NewTaxi(cfg TaxiConfig) *Taxi { return dataset.NewTaxi(cfg) }

// NewTaxiPipeline constructs the Taxi pipeline (parser → feature extractor
// → anomaly detector → standard scaler → one-hot → assembler).
func NewTaxiPipeline() *pipeline.Pipeline { return dataset.NewTaxiPipeline() }

// NewTaxiModel constructs the Taxi pipeline's linear regression over
// TaxiFeatureDim features.
func NewTaxiModel(reg float64) *model.LinearRegression { return dataset.NewTaxiModel(reg) }

// TaxiFeatureDim is the Taxi pipeline's assembled feature dimensionality.
const TaxiFeatureDim = dataset.TaxiFeatureDim

// RatingsConfig parameterizes the synthetic rating stream for the matrix
// factorization model.
type RatingsConfig = dataset.RatingsConfig

// Ratings generates the rating stream.
type Ratings = dataset.Ratings

// DefaultRatingsConfig returns a laptop-scale rating stream.
func DefaultRatingsConfig() RatingsConfig { return dataset.DefaultRatingsConfig() }

// NewRatings returns a rating stream generator.
func NewRatings(cfg RatingsConfig) *Ratings { return dataset.NewRatings(cfg) }

// NewRatingsPipeline constructs the recommender pipeline (parser → rating
// clipper → two-hot encoder).
func NewRatingsPipeline(users, items int) *pipeline.Pipeline {
	return dataset.NewRatingsPipeline(users, items)
}

// NewRatingsModel constructs the matrix factorization model for the stream.
func NewRatingsModel(cfg RatingsConfig, reg float64) *model.MF {
	return dataset.NewRatingsModel(cfg, reg)
}

// Haversine returns the great-circle distance in km between two (lat, lon)
// points in degrees.
func Haversine(lat1, lon1, lat2, lon2 float64) float64 {
	return dataset.Haversine(lat1, lon1, lat2, lon2)
}

// Bearing returns the initial compass bearing in degrees from point 1 to
// point 2.
func Bearing(lat1, lon1, lat2, lon2 float64) float64 {
	return dataset.Bearing(lat1, lon1, lat2, lon2)
}
