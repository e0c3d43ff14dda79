#ifndef PERFBENCH_PROC_H_
#define PERFBENCH_PROC_H_

/// \file proc.h
/// Child processes of the benchmark (the `wmpctl` runs). Every child is
/// owned by a Child object: the destructor kills and reaps one that is
/// still running, and the child is asked to die with the benchmark
/// (PR_SET_PDEATHSIG), so no run leaves a process behind.

#include <sys/resource.h>
#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

class Child {
 public:
  /// Starts `argv` (argv[0] is a path) with stdout and stderr appended to
  /// `log_path`. Throws std::runtime_error when it cannot start.
  Child(const std::vector<std::string>& argv, const std::string& log_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Waits for the child to exit on its own; returns its exit code (128 +
  /// signal when killed). Kills it after `timeout_s`.
  int Wait(double timeout_s);
  /// Reaps the child if it has already exited; true when it has.
  bool Exited();
  /// Sends SIGTERM and waits like Wait.
  int Terminate(double timeout_s);

  /// Highest VmHWM (peak resident set, MiB) seen so far: sampled by every
  /// Wait poll and by SamplePeakRss. The kernel's rusage is no use here:
  /// its maxrss of a forked child includes the parent's pages from before
  /// exec, i.e. the benchmark's own footprint.
  double peak_rss_mb() const { return peak_rss_mb_; }
  /// Reads the running child's VmHWM now; returns the peak so far.
  double SamplePeakRss();
  /// User + system CPU time of the child, all its threads, in seconds:
  /// read from /proc while it runs, from its rusage once reaped.
  double CpuSeconds() const;

 private:
  /// Records an exit reaped by wait4; returns the exit code.
  int Reaped(int status, const struct rusage& usage);

  pid_t pid_ = -1;
  double peak_rss_mb_ = 0.0;
  double exited_cpu_s_ = 0.0;
};

/// What a child run to completion used.
struct Usage {
  double wall_s = 0.0;
  double cpu_s = 0.0;        ///< user + system, all threads
  double peak_rss_mb = 0.0;  ///< VmHWM
};

/// Runs `argv` to completion (see Child). Returns the exit code; fills
/// `usage` when non-null.
int RunToCompletion(const std::vector<std::string>& argv,
                    const std::string& log_path, double timeout_s,
                    Usage* usage);

/// Whole contents of a text file ("" when unreadable).
std::string ReadFile(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_PROC_H_
