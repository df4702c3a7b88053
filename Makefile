# Convenience wrappers around the CMake build.
#
#   make build        - configure + build the regular tree (./build)
#   make test         - regular build + full ctest suite
#   make bench-obs    - build + run the observability overhead A/B
#                       (writes BENCH_obs.json)
#   make bench-selftest - build + run every BENCHMARK.json workload at
#                       tiny sizes (python3 perfbench/run.py --selftest);
#                       perfbench/ compiles ../src with its own
#                       CMakeLists, so run this after editing
#                       src/CMakeLists.txt or a public header
#                       (the tier-1 build also compiles perfbench's
#                       sources, so a broken field shows up there first)
#   make verify-tsan  - ThreadSanitizer pass over the concurrency +
#                       reach + exec + obs + wcoj + mqo + net + sched
#                       tests (the Chase-Lev deque is the TSan-critical
#                       piece of the scheduler)
#   make verify-asan  - AddressSanitizer pass over the same labels
#   make verify-release - clean Release build (./build-release) of the
#                       library targets under src/; fails on any
#                       compiler warning (-O3 diagnostics the
#                       RelWithDebInfo tier-1 build never sees)
#
# verify-tsan / verify-asan are the one-command sanitizer gates for the
# `concurrency`, `reach`, `exec`, `obs`, `obs2`, `wcoj`, `mqo`, `net` and
# `sched` ctest labels (buffer-pool / code-cache hammer tests,
# code-layout round-trips, the multi-threaded probe differentials, the
# executor row-order and naive-matcher differentials and the
# metrics/trace suites with their 8-thread exact-total checks): each
# maintains a separate instrumented tree
# (./build-tsan, ./build-asan) so the regular build is never polluted
# with -fsanitize flags.

BUILD_DIR ?= build
TSAN_BUILD_DIR ?= build-tsan
ASAN_BUILD_DIR ?= build-asan
RELEASE_BUILD_DIR ?= build-release
# Library targets of src/CMakeLists.txt (first word after add_library).
SRC_LIBS := $(shell grep '^add_library' src/CMakeLists.txt | \
              tr -c 'a-z_\n' ' ' | awk '{print $$2}')
JOBS ?= $(shell nproc 2>/dev/null || echo 2)

.PHONY: build test bench-obs bench-selftest verify-tsan verify-asan verify-release

build:
	cmake -B $(BUILD_DIR) -S .
	cmake --build $(BUILD_DIR) -j $(JOBS)

test: build
	ctest --test-dir $(BUILD_DIR) --output-on-failure -j $(JOBS)

bench-obs: build
	cd $(BUILD_DIR)/bench && ./bench_obs_overhead
	cp $(BUILD_DIR)/bench/BENCH_obs.json BENCH_obs.json

bench-selftest:
	python3 perfbench/run.py --selftest

verify-tsan:
	cmake -B $(TSAN_BUILD_DIR) -S . -DFGPM_SANITIZE=thread
	cmake --build $(TSAN_BUILD_DIR) -j $(JOBS)
	ctest --test-dir $(TSAN_BUILD_DIR) -L 'concurrency|reach|exec|obs|obs2|wcoj|mqo|net|sched' --output-on-failure

verify-asan:
	cmake -B $(ASAN_BUILD_DIR) -S . -DFGPM_SANITIZE=address
	cmake --build $(ASAN_BUILD_DIR) -j $(JOBS)
	ctest --test-dir $(ASAN_BUILD_DIR) -L 'concurrency|reach|exec|obs|obs2|wcoj|mqo|net|sched' --output-on-failure

verify-release:
	cmake -B $(RELEASE_BUILD_DIR) -S . -DCMAKE_BUILD_TYPE=Release
	cmake --build $(RELEASE_BUILD_DIR) --clean-first -j $(JOBS) \
	  --target $(SRC_LIBS) > $(RELEASE_BUILD_DIR)/verify-release.log 2>&1 || \
	  (cat $(RELEASE_BUILD_DIR)/verify-release.log; exit 1)
	@if grep -n 'warning:' $(RELEASE_BUILD_DIR)/verify-release.log; then \
	  echo "verify-release: compiler warnings in the Release build"; exit 1; \
	fi
	@echo "verify-release: $(words $(SRC_LIBS)) library targets, no warnings"
