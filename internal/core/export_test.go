package core

// Hooks for the external tests of this package (life_test.go).
var (
	// AbortIngestLog is the abort a failed tick writes: the life
	// generator's reject step writes it for a chunk it never ticks.
	AbortIngestLog = (*Deployer).abortIngestLog
	// PredictVersion is Predict with the version of the snapshot that
	// answered.
	PredictVersion = (*Deployer).predict
)
