package serve

// MaxBodyBytes exposes the request body bound to the package serve_test
// tests.
const MaxBodyBytes = maxBodyBytes
