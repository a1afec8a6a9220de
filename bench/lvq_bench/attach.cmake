# Adds lvq_bench to a configure of the top-level project:
#
#   cmake -S . -B .bench_build/lvq_bench \
#         -DCMAKE_PROJECT_lvq_INCLUDE=bench/lvq_bench/attach.cmake
#
# CMake includes this file right after project(lvq). The deferred call runs
# once the top-level CMakeLists.txt has finished, so bench/lvq_bench's
# CMakeLists.txt is read after src/ and bench/, with their settings and
# helpers. (Deferred calls may not add subdirectories, hence include.)
function(lvq_bench_attach)
  if(NOT TARGET lvq_bench)  # bench/CMakeLists.txt may already add it
    include(${CMAKE_CURRENT_FUNCTION_LIST_DIR}/CMakeLists.txt)
  endif()
endfunction()
cmake_language(DEFER CALL lvq_bench_attach)
