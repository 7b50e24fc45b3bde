// Package daemon is the substrate both service daemons stand on: mtatd
// (internal/server: runs on a worker pool) and mtatfleet
// (internal/cluster: sweeps sharded across mtatd nodes). It holds the
// mechanisms they share, so each daemon package keeps only its domain
// logic:
//
//   - client.go: the HTTP client core (auth, trace propagation, the
//     error envelope decoded into one APIError, SSE open) and the
//     backoff poll loop behind every Wait;
//   - http.go: the JSON/error writers, the probe, telemetry, trace and
//     tenant routes, the tenant-scoped firehose, and the middleware wrap;
//   - store.go: ID allocation, submission/finish order and cap eviction
//     (Store), the nil-safe journal handle (Journal), and the small
//     record helpers;
//   - boot.go: the process bootstrap — logging, -tenants loading, SIGHUP
//     reload, signal handling, drain and HTTP shutdown.
package daemon
