# Benchmark targets, included from the top-level CMakeLists (not
# add_subdirectory) so that build/bench/ contains exactly the bench binaries
# and `for b in build/bench/*; do $b; done` runs them all cleanly.

function(emu_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
  target_link_libraries(${name} PRIVATE emu)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

emu_add_bench(table3_switch_comparison)
emu_add_bench(table4_service_comparison)
emu_add_bench(table5_debug_overhead)
emu_add_bench(ablation_memcached_cores)
emu_add_bench(ablation_memory_backend)
emu_add_bench(ablation_cam_variants)
emu_add_bench(ablation_bus_width)
emu_add_bench(ablation_pipeline_depth)
emu_add_bench(ablation_l1_cache)
emu_add_bench(microbench_kernel)
target_link_libraries(microbench_kernel PRIVATE benchmark::benchmark)
emu_add_bench(microbench_parallel)
emu_add_bench(microbench_gossip)
emu_add_bench(microbench_chain)

# A malformed count list is a usage error (exit 2), never an empty sweep that
# passes its gate.
add_test(NAME microbench_chain_rejects_bad_threads
         COMMAND ${CMAKE_COMMAND} -DEXE=$<TARGET_FILE:microbench_chain>
                 "-DARGS=--threads x --check" -DEXPECTED_EXIT=2
                 -P ${CMAKE_SOURCE_DIR}/tests/expect_exit.cmake)

# The paper tables are deterministic: each run must print its golden stdout
# byte for byte (tests/golden/table{3,4,5}.txt).
foreach(table table3_switch_comparison table4_service_comparison table5_debug_overhead)
  string(REGEX MATCH "^table[0-9]" short ${table})
  add_test(NAME ${short}_matches_golden
           COMMAND ${CMAKE_COMMAND} -DEXE=$<TARGET_FILE:${table}>
                   -DGOLDEN=${CMAKE_SOURCE_DIR}/tests/golden/${short}.txt
                   -DACTUAL=${CMAKE_BINARY_DIR}/${short}.actual.txt
                   -P ${CMAKE_SOURCE_DIR}/tests/expect_stdout.cmake)
endforeach()
