#include "ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "ml/lbfgs.h"
#include "util/parallel.h"

namespace wmp::ml {

const char* ActivationName(Activation a) {
  switch (a) {
    case Activation::kIdentity:
      return "identity";
    case Activation::kRelu:
      return "relu";
    case Activation::kTanh:
      return "tanh";
  }
  return "?";
}

const char* MlpSolverName(MlpSolver s) {
  switch (s) {
    case MlpSolver::kSgd:
      return "sgd";
    case MlpSolver::kAdam:
      return "adam";
    case MlpSolver::kLbfgs:
      return "lbfgs";
  }
  return "?";
}

namespace {

inline double Act(double v, Activation a) {
  switch (a) {
    case Activation::kIdentity:
      return v;
    case Activation::kRelu:
      return v > 0.0 ? v : 0.0;
    case Activation::kTanh:
      return std::tanh(v);
  }
  return v;
}

// Derivative expressed through the activation output.
inline double ActDerivFromOutput(double out, Activation a) {
  switch (a) {
    case Activation::kIdentity:
      return 1.0;
    case Activation::kRelu:
      return out > 0.0 ? 1.0 : 0.0;
    case Activation::kTanh:
      return 1.0 - out * out;
  }
  return 1.0;
}

}  // namespace

void MlpRegressor::InitParams(size_t input_dim, Rng* rng) {
  layer_dims_.clear();
  layer_dims_.push_back(input_dim);
  for (int h : options_.hidden_layers) {
    layer_dims_.push_back(static_cast<size_t>(h));
  }
  layer_dims_.push_back(1);

  weights_.clear();
  biases_.clear();
  for (size_t l = 0; l + 1 < layer_dims_.size(); ++l) {
    const size_t in = layer_dims_[l], out = layer_dims_[l + 1];
    Matrix w(in, out);
    // Glorot-uniform init, matching scikit-learn's MLP.
    const double bound = std::sqrt(6.0 / static_cast<double>(in + out));
    for (double& v : w.data()) v = rng->UniformDouble(-bound, bound);
    weights_.push_back(std::move(w));
    biases_.emplace_back(out, 0.0);
  }
}

std::vector<Matrix> MlpRegressor::Forward(const Matrix& x) const {
  std::vector<Matrix> acts;
  acts.reserve(weights_.size() + 1);
  acts.push_back(x);
  for (size_t l = 0; l < weights_.size(); ++l) {
    Matrix z = MatMul(acts.back(), weights_[l]);
    const bool is_output = (l + 1 == weights_.size());
    for (size_t r = 0; r < z.rows(); ++r) {
      double* row = z.RowPtr(r);
      for (size_t c = 0; c < z.cols(); ++c) {
        row[c] += biases_[l][c];
        if (!is_output) row[c] = Act(row[c], options_.activation);
      }
    }
    acts.push_back(std::move(z));
  }
  return acts;
}

double MlpRegressor::LossAndGrad(const Matrix& x,
                                 const std::vector<double>& y_scaled,
                                 std::vector<Matrix>* grad_w,
                                 std::vector<std::vector<double>>* grad_b) const {
  const size_t batch = x.rows();
  const double inv_n = 1.0 / static_cast<double>(batch);
  std::vector<Matrix> acts = Forward(x);

  grad_w->clear();
  grad_b->clear();
  for (size_t l = 0; l < weights_.size(); ++l) {
    grad_w->emplace_back(weights_[l].rows(), weights_[l].cols());
    grad_b->emplace_back(biases_[l].size(), 0.0);
  }

  // Data loss: 1/(2N) sum (pred - y)^2  (eq. 9).
  const Matrix& output = acts.back();
  double loss = 0.0;
  Matrix delta(batch, 1);
  for (size_t i = 0; i < batch; ++i) {
    const double err = output.At(i, 0) - y_scaled[i];
    loss += 0.5 * err * err;
    delta.At(i, 0) = err * inv_n;  // dL/dz at the output
  }
  loss *= inv_n;

  // Backprop through layers.
  for (size_t li = weights_.size(); li-- > 0;) {
    const Matrix& input_act = acts[li];
    // grad_w = input^T * delta ; grad_b = column sums of delta.
    Matrix& gw = (*grad_w)[li];
    std::vector<double>& gb = (*grad_b)[li];
    for (size_t r = 0; r < input_act.rows(); ++r) {
      const double* in_row = input_act.RowPtr(r);
      const double* d_row = delta.RowPtr(r);
      for (size_t c = 0; c < delta.cols(); ++c) {
        const double d = d_row[c];
        if (d == 0.0) continue;
        gb[c] += d;
        double* gw_col_base = gw.RowPtr(0) + c;
        for (size_t k = 0; k < input_act.cols(); ++k) {
          gw_col_base[k * gw.cols()] += in_row[k] * d;
        }
      }
    }
    if (li == 0) break;
    // delta_prev = (delta * W^T) ⊙ act'(acts[li])
    Matrix prev(delta.rows(), weights_[li].rows());
    for (size_t r = 0; r < delta.rows(); ++r) {
      const double* d_row = delta.RowPtr(r);
      double* p_row = prev.RowPtr(r);
      for (size_t c = 0; c < delta.cols(); ++c) {
        const double d = d_row[c];
        if (d == 0.0) continue;
        const double* w_row_base = weights_[li].RowPtr(0) + c;
        for (size_t k = 0; k < weights_[li].rows(); ++k) {
          p_row[k] += d * w_row_base[k * weights_[li].cols()];
        }
      }
      const double* a_row = acts[li].RowPtr(r);
      for (size_t k = 0; k < prev.cols(); ++k) {
        p_row[k] *= ActDerivFromOutput(a_row[k], options_.activation);
      }
    }
    delta = std::move(prev);
  }

  // L2 penalty: alpha/(2N) ||W||^2, gradients alpha/N * W (biases excluded).
  const double reg_scale = options_.alpha * inv_n;
  for (size_t l = 0; l < weights_.size(); ++l) {
    const auto& wdata = weights_[l].data();
    auto& gdata = (*grad_w)[l].data();
    for (size_t i = 0; i < wdata.size(); ++i) {
      loss += 0.5 * reg_scale * wdata[i] * wdata[i];
      gdata[i] += reg_scale * wdata[i];
    }
  }
  return loss;
}

Status MlpRegressor::FitFirstOrder(const Matrix& x,
                                   const std::vector<double>& y_scaled) {
  const size_t n = x.rows();
  Rng rng(options_.seed + 1);
  const size_t batch_size =
      std::min<size_t>(std::max(options_.batch_size, 1), n);

  // Optimizer state.
  std::vector<Matrix> vel_w, m_w, v_w;
  std::vector<std::vector<double>> vel_b, m_b, v_b;
  for (size_t l = 0; l < weights_.size(); ++l) {
    vel_w.emplace_back(weights_[l].rows(), weights_[l].cols());
    m_w.emplace_back(weights_[l].rows(), weights_[l].cols());
    v_w.emplace_back(weights_[l].rows(), weights_[l].cols());
    vel_b.emplace_back(biases_[l].size(), 0.0);
    m_b.emplace_back(biases_[l].size(), 0.0);
    v_b.emplace_back(biases_[l].size(), 0.0);
  }
  constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;
  int64_t adam_t = 0;

  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  double best_loss = std::numeric_limits<double>::max();
  int stale_epochs = 0;
  std::vector<Matrix> gw;
  std::vector<std::vector<double>> gb;
  for (int epoch = 0; epoch < options_.max_iter; ++epoch) {
    rng.Shuffle(&order);
    double epoch_loss = 0.0;
    size_t batches = 0;
    for (size_t start = 0; start < n; start += batch_size) {
      const size_t end = std::min(start + batch_size, n);
      Matrix bx(end - start, x.cols());
      std::vector<double> by(end - start);
      for (size_t i = start; i < end; ++i) {
        std::copy(x.RowPtr(order[i]), x.RowPtr(order[i]) + x.cols(),
                  bx.RowPtr(i - start));
        by[i - start] = y_scaled[order[i]];
      }
      epoch_loss += LossAndGrad(bx, by, &gw, &gb);
      ++batches;

      if (options_.solver == MlpSolver::kSgd) {
        for (size_t l = 0; l < weights_.size(); ++l) {
          auto& w = weights_[l].data();
          auto& g = gw[l].data();
          auto& vel = vel_w[l].data();
          for (size_t i = 0; i < w.size(); ++i) {
            vel[i] = options_.momentum * vel[i] - options_.learning_rate * g[i];
            w[i] += vel[i];
          }
          for (size_t i = 0; i < biases_[l].size(); ++i) {
            vel_b[l][i] = options_.momentum * vel_b[l][i] -
                          options_.learning_rate * gb[l][i];
            biases_[l][i] += vel_b[l][i];
          }
        }
      } else {  // Adam
        ++adam_t;
        const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(adam_t));
        const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(adam_t));
        for (size_t l = 0; l < weights_.size(); ++l) {
          auto& w = weights_[l].data();
          auto& g = gw[l].data();
          auto& m = m_w[l].data();
          auto& v = v_w[l].data();
          for (size_t i = 0; i < w.size(); ++i) {
            m[i] = kBeta1 * m[i] + (1.0 - kBeta1) * g[i];
            v[i] = kBeta2 * v[i] + (1.0 - kBeta2) * g[i] * g[i];
            w[i] -= options_.learning_rate * (m[i] / bc1) /
                    (std::sqrt(v[i] / bc2) + kEps);
          }
          for (size_t i = 0; i < biases_[l].size(); ++i) {
            m_b[l][i] = kBeta1 * m_b[l][i] + (1.0 - kBeta1) * gb[l][i];
            v_b[l][i] =
                kBeta2 * v_b[l][i] + (1.0 - kBeta2) * gb[l][i] * gb[l][i];
            biases_[l][i] -= options_.learning_rate * (m_b[l][i] / bc1) /
                             (std::sqrt(v_b[l][i] / bc2) + kEps);
          }
        }
      }
    }
    epoch_loss /= static_cast<double>(std::max<size_t>(batches, 1));
    iterations_run_ = epoch + 1;
    final_loss_ = epoch_loss;
    if (epoch_loss < best_loss - options_.tol * std::max(best_loss, 1e-12)) {
      best_loss = epoch_loss;
      stale_epochs = 0;
    } else if (++stale_epochs >= options_.n_iter_no_change) {
      break;
    }
  }
  return Status::OK();
}

Status MlpRegressor::FitLbfgs(const Matrix& x,
                              const std::vector<double>& y_scaled) {
  ObjectiveFn objective = [this, &x, &y_scaled](const std::vector<double>& p,
                                                std::vector<double>* grad) {
    // const_cast is confined to the optimizer round-trip: parameters are
    // restored from `p` before every evaluation.
    auto* self = const_cast<MlpRegressor*>(this);
    self->UnflattenParams(p);
    std::vector<Matrix> gw;
    std::vector<std::vector<double>> gb;
    const double loss = LossAndGrad(x, y_scaled, &gw, &gb);
    grad->clear();
    grad->reserve(NumParams());
    for (size_t l = 0; l < gw.size(); ++l) {
      grad->insert(grad->end(), gw[l].data().begin(), gw[l].data().end());
      grad->insert(grad->end(), gb[l].begin(), gb[l].end());
    }
    return loss;
  };
  LbfgsOptions lopt;
  lopt.max_iters = options_.max_iter;
  lopt.f_tol = options_.tol;
  WMP_ASSIGN_OR_RETURN(LbfgsSummary summary,
                       MinimizeLbfgs(objective, FlattenParams(), lopt));
  UnflattenParams(summary.x);
  final_loss_ = summary.loss;
  iterations_run_ = summary.iterations;
  return Status::OK();
}

Status MlpRegressor::Fit(const Matrix& x, const std::vector<double>& y) {
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("MLP::Fit on empty matrix");
  }
  if (y.size() != x.rows()) {
    return Status::InvalidArgument("MLP::Fit target size mismatch");
  }
  for (int h : options_.hidden_layers) {
    if (h < 1) return Status::InvalidArgument("hidden layer width must be >= 1");
  }
  Rng rng(options_.seed);
  InitParams(x.cols(), &rng);

  // Standardize targets for optimizer stability.
  y_mean_ = 0.0;
  for (double v : y) y_mean_ += v;
  y_mean_ /= static_cast<double>(y.size());
  double var = 0.0;
  for (double v : y) var += (v - y_mean_) * (v - y_mean_);
  y_std_ = std::sqrt(var / static_cast<double>(y.size()));
  if (y_std_ < 1e-12) y_std_ = 1.0;
  std::vector<double> y_scaled(y.size());
  for (size_t i = 0; i < y.size(); ++i) y_scaled[i] = (y[i] - y_mean_) / y_std_;

  if (options_.solver == MlpSolver::kLbfgs) return FitLbfgs(x, y_scaled);
  return FitFirstOrder(x, y_scaled);
}

Result<double> MlpRegressor::PredictOne(const std::vector<double>& x) const {
  if (!fitted()) return Status::FailedPrecondition("MLP not fitted");
  if (x.size() != layer_dims_.front()) {
    return Status::InvalidArgument("MLP::PredictOne dimension mismatch");
  }
  Matrix m(1, x.size());
  std::copy(x.begin(), x.end(), m.RowPtr(0));
  std::vector<Matrix> acts = Forward(m);
  return acts.back().At(0, 0) * y_std_ + y_mean_;
}

Result<std::vector<double>> MlpRegressor::Predict(const Matrix& x) const {
  if (!fitted()) return Status::FailedPrecondition("MLP not fitted");
  if (x.cols() != layer_dims_.front()) {
    return Status::InvalidArgument("MLP::Predict dimension mismatch");
  }
  // Row-blocked forward passes: bounds activation memory and lets blocks run
  // on the worker pool. Per-row results are independent of block shape (each
  // output element is one fixed-order dot product), so this agrees with the
  // whole-matrix pass and with PredictOne bitwise.
  std::vector<double> out(x.rows());
  util::ParallelFor(x.rows(), 256, [&](size_t begin, size_t end) {
    Matrix block(end - begin, x.cols());
    std::copy(x.RowPtr(begin), x.RowPtr(begin) + (end - begin) * x.cols(),
              block.data().begin());
    const std::vector<Matrix> acts = Forward(block);
    for (size_t i = begin; i < end; ++i) {
      out[i] = acts.back().At(i - begin, 0) * y_std_ + y_mean_;
    }
  });
  return out;
}

std::vector<double> MlpRegressor::FlattenParams() const {
  std::vector<double> flat;
  flat.reserve(NumParams());
  for (size_t l = 0; l < weights_.size(); ++l) {
    flat.insert(flat.end(), weights_[l].data().begin(),
                weights_[l].data().end());
    flat.insert(flat.end(), biases_[l].begin(), biases_[l].end());
  }
  return flat;
}

void MlpRegressor::UnflattenParams(const std::vector<double>& flat) {
  size_t pos = 0;
  for (size_t l = 0; l < weights_.size(); ++l) {
    auto& wdata = weights_[l].data();
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(pos),
              flat.begin() + static_cast<std::ptrdiff_t>(pos + wdata.size()),
              wdata.begin());
    pos += wdata.size();
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(pos),
              flat.begin() +
                  static_cast<std::ptrdiff_t>(pos + biases_[l].size()),
              biases_[l].begin());
    pos += biases_[l].size();
  }
}

size_t MlpRegressor::NumParams() const {
  size_t n = 0;
  for (size_t l = 0; l < weights_.size(); ++l) {
    n += weights_[l].data().size() + biases_[l].size();
  }
  return n;
}

Status MlpRegressor::Serialize(BinaryWriter* writer) const {
  if (!fitted()) return Status::FailedPrecondition("MLP not fitted");
  writer->WriteU32(serialize_tags::kMlp);
  writer->WriteU8(static_cast<uint8_t>(options_.activation));
  writer->WriteDouble(y_mean_);
  writer->WriteDouble(y_std_);
  writer->WriteU64(layer_dims_.size());
  for (size_t dim : layer_dims_) writer->WriteU64(dim);
  for (size_t l = 0; l < weights_.size(); ++l) {
    writer->WriteDoubleVec(weights_[l].data());
    writer->WriteDoubleVec(biases_[l]);
  }
  return Status::OK();
}

Result<std::unique_ptr<MlpRegressor>> MlpRegressor::Deserialize(
    BinaryReader* reader) {
  WMP_ASSIGN_OR_RETURN(uint32_t tag, reader->ReadU32());
  if (tag != serialize_tags::kMlp) {
    return Status::InvalidArgument("bad mlp magic tag");
  }
  MlpOptions opt;
  WMP_ASSIGN_OR_RETURN(uint8_t act, reader->ReadU8());
  opt.activation = static_cast<Activation>(act);
  auto model = std::make_unique<MlpRegressor>();
  WMP_ASSIGN_OR_RETURN(model->y_mean_, reader->ReadDouble());
  WMP_ASSIGN_OR_RETURN(model->y_std_, reader->ReadDouble());
  WMP_ASSIGN_OR_RETURN(uint64_t nlayers, reader->ReadU64());
  if (nlayers > reader->remaining() / sizeof(uint64_t)) {
    return Status::InvalidArgument("mlp layer count out of range");
  }
  model->layer_dims_.resize(nlayers);
  opt.hidden_layers.clear();
  for (uint64_t i = 0; i < nlayers; ++i) {
    WMP_ASSIGN_OR_RETURN(uint64_t dim, reader->ReadU64());
    model->layer_dims_[i] = dim;
    if (i > 0 && i + 1 < nlayers) {
      opt.hidden_layers.push_back(static_cast<int>(dim));
    }
  }
  for (uint64_t l = 0; l + 1 < nlayers; ++l) {
    WMP_ASSIGN_OR_RETURN(std::vector<double> w, reader->ReadDoubleVec());
    WMP_ASSIGN_OR_RETURN(std::vector<double> b, reader->ReadDoubleVec());
    const size_t in = model->layer_dims_[l], out = model->layer_dims_[l + 1];
    if (in == 0 || w.size() % in != 0 || w.size() / in != out ||
        b.size() != out) {
      return Status::InvalidArgument("mlp stream corrupt");
    }
    model->weights_.emplace_back(in, out, std::move(w));
    model->biases_.push_back(std::move(b));
  }
  model->options_ = opt;
  return model;
}

}  // namespace wmp::ml
