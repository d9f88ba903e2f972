// The benchmark is a module of its own because the benchmark contract asks
// for it: a benchmark that has to be compiled is a package in its own
// directory with its own build file, so that what is measured is built from
// this directory alone. The price is that the root module's
// `go build ./... && go test ./...` does not see it: build, vet and test it
// from here (`go vet . && go test .`).
module coopabft/cmd/abftbench

go 1.22

require coopabft v0.0.0

replace coopabft => ../..
