GO ?= go

.PHONY: all build test lint vet bench

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs gofmt (fail on any unformatted file), go vet, and dewrite-vet,
# the repository's custom analyzer suite (determinism, nilsafe, reportcompat,
# atomichygiene, lockdiscipline, goroutinelifecycle, booksbalance — see
# DESIGN.md §10 and §15).
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) run ./cmd/dewrite-vet ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./...
