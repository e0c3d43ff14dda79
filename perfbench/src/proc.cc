#include "proc.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

Child::Child(const std::vector<std::string>& argv,
             const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::runtime_error("cannot open " + log_path);
  // Closed by a successful exec: EOF on `exec_pipe[0]` means the child runs
  // the new program, so /proc shows its memory and not a copy of ours.
  int exec_pipe[2];
  if (::pipe2(exec_pipe, O_CLOEXEC) != 0) {
    ::close(log_fd);
    throw std::runtime_error("pipe failed");
  }
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);  // parent already gone
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    const char failed = 1;
    (void)!::write(exec_pipe[1], &failed, 1);
    ::_exit(127);
  }
  ::close(log_fd);
  ::close(exec_pipe[1]);
  char failed = 0;
  ssize_t got = 0;
  do {
    got = ::read(exec_pipe[0], &failed, 1);
  } while (got < 0 && errno == EINTR);
  ::close(exec_pipe[0]);
  if (pid_ < 0) throw std::runtime_error("fork failed for " + argv[0]);
  if (got != 0) {
    Wait(10.0);
    throw std::runtime_error("cannot execute " + argv[0]);
  }
}

Child::~Child() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

int Child::Wait(double timeout_s) {
  if (pid_ <= 0) return -1;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  int status = 0;
  struct rusage usage {};
  for (;;) {
    SamplePeakRss();
    const pid_t got = ::wait4(pid_, &status, WNOHANG, &usage);
    if (got == pid_) return Reaped(status, usage);
    if (got < 0) {
      pid_ = -1;
      return -1;
    }
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, &status, 0, &usage);
      return Reaped(status, usage);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

bool Child::Exited() {
  if (pid_ <= 0) return true;
  int status = 0;
  struct rusage usage {};
  const pid_t got = ::wait4(pid_, &status, WNOHANG, &usage);
  if (got == pid_) Reaped(status, usage);
  if (got < 0) pid_ = -1;
  return pid_ <= 0;
}

double Child::SamplePeakRss() {
  if (pid_ > 0) {
    const std::string status =
        ReadFile("/proc/" + std::to_string(pid_) + "/status");
    const size_t at = status.find("VmHWM:");
    if (at != std::string::npos) {
      peak_rss_mb_ = std::max(
          peak_rss_mb_, std::strtod(status.c_str() + at + 6, nullptr) / 1024.0);
    }
  }
  return peak_rss_mb_;
}

double Child::CpuSeconds() const {
  if (pid_ <= 0) return exited_cpu_s_;
  // Fields 14 and 15 (utime, stime, in clock ticks) of /proc/PID/stat; the
  // command name before them may hold spaces, so count from its ')'.
  const std::string stat = ReadFile("/proc/" + std::to_string(pid_) + "/stat");
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(paren + 1));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

int Child::Reaped(int status, const struct rusage& usage) {
  pid_ = -1;
  auto seconds = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  exited_cpu_s_ = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

int Child::Terminate(double timeout_s) {
  if (pid_ > 0) ::kill(pid_, SIGTERM);
  return Wait(timeout_s);
}

int RunToCompletion(const std::vector<std::string>& argv,
                    const std::string& log_path, double timeout_s,
                    Usage* usage) {
  const auto start = std::chrono::steady_clock::now();
  Child child(argv, log_path);
  const int code = child.Wait(timeout_s);
  if (usage != nullptr) {
    usage->wall_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    usage->cpu_s = child.CpuSeconds();
    usage->peak_rss_mb = child.peak_rss_mb();
  }
  return code;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace perfbench
