package siglang

// CheckRenderersMatchOracle lets the external test package hold the
// renderers to the oracle on analyzed reports, which this package cannot
// import.
var CheckRenderersMatchOracle = checkRenderersMatchOracle
