// The benchmark is a module of its own so that it has its own build file
// and stays out of the parent module's `go build ./...` and `go test ./...`.
// Its path sits under `repro/`, which is what lets it import
// `repro/internal/...`.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
