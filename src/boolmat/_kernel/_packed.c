/* Single-word join-meet kernels: every mask must fit one 64-bit word.

   Products are row-major, out[i*p+j] = OR_t (a[i*m+t] & b[t*p+j]), and
   matvec is the p == 1 case of matmul.  Masks arrive as any sequence of
   ints and leave as a list of ints, like the pure backend in pure.py. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

_Static_assert(sizeof(unsigned long long) == sizeof(uint64_t),
               "masks are read with PyLong_AsUnsignedLongLong");

/* Copy the `size` masks of `seq` into a new buffer.  Returns NULL with an
   exception set: ValueError for a wrong length, OverflowError for a mask
   outside [0, 2**64), TypeError for a non-int. */
static uint64_t *
load(PyObject *seq, Py_ssize_t size)
{
    PyObject *fast = PySequence_Fast(seq, "masks must be a sequence");
    if (fast == NULL)
        return NULL;
    uint64_t *buf = NULL;
    if (PySequence_Fast_GET_SIZE(fast) != size) {
        PyErr_Format(PyExc_ValueError, "expected %zd masks, got %zd",
                     size, PySequence_Fast_GET_SIZE(fast));
        goto done;
    }
    buf = PyMem_New(uint64_t, size);
    if (buf == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < size; i++) {
        buf[i] = PyLong_AsUnsignedLongLong(PySequence_Fast_GET_ITEM(fast, i));
        if (buf[i] == (uint64_t)-1 && PyErr_Occurred()) {
            PyMem_Free(buf);
            buf = NULL;
            goto done;
        }
    }
done:
    Py_DECREF(fast);
    return buf;
}

/* The one product loop behind matmul and matvec. */
static PyObject *
product(Py_ssize_t n, Py_ssize_t m, Py_ssize_t p, PyObject *a, PyObject *b)
{
    if (n < 0 || m < 0 || p < 0) {
        PyErr_SetString(PyExc_ValueError, "negative matrix dimensions");
        return NULL;
    }
    if ((m != 0 && n > PY_SSIZE_T_MAX / m) || (p != 0 && m > PY_SSIZE_T_MAX / p)
        || (p != 0 && n > PY_SSIZE_T_MAX / p)) {
        PyErr_SetString(PyExc_ValueError, "matrix dimensions overflow");
        return NULL;
    }
    PyObject *out = NULL;
    uint64_t *wb = NULL, *wa = load(a, n * m);
    if (wa == NULL || (wb = load(b, m * p)) == NULL || (out = PyList_New(n * p)) == NULL)
        goto done;
    for (Py_ssize_t i = 0; i < n; i++) {
        for (Py_ssize_t j = 0; j < p; j++) {
            uint64_t acc = 0;
            for (Py_ssize_t t = 0; t < m; t++)
                acc |= wa[i * m + t] & wb[t * p + j];
            PyObject *mask = PyLong_FromUnsignedLongLong(acc);
            if (mask == NULL) {
                Py_CLEAR(out);
                goto done;
            }
            PyList_SET_ITEM(out, i * p + j, mask);
        }
    }
done:
    PyMem_Free(wa);
    PyMem_Free(wb);
    return out;
}

static PyObject *
matmul(PyObject *Py_UNUSED(module), PyObject *args)
{
    Py_ssize_t n, m, p;
    PyObject *a, *b;
    if (!PyArg_ParseTuple(args, "nnnOO:matmul", &n, &m, &p, &a, &b))
        return NULL;
    return product(n, m, p, a, b);
}

static PyObject *
matvec(PyObject *Py_UNUSED(module), PyObject *args)
{
    Py_ssize_t n, m;
    PyObject *a, *v;
    if (!PyArg_ParseTuple(args, "nnOO:matvec", &n, &m, &a, &v))
        return NULL;
    return product(n, m, 1, a, v);
}

static PyMethodDef methods[] = {
    {"matmul", matmul, METH_VARARGS,
     "matmul(n, m, p, a, b)\n--\n\n"
     "Row-major product: out[i*p+j] = OR_t (a[i*m+t] & b[t*p+j])."},
    {"matvec", matvec, METH_VARARGS,
     "matvec(n, m, a, v)\n--\n\nout[i] = OR_t (a[i*m+t] & v[t])."},
    {NULL, NULL, 0, NULL},
};

static int
exec_module(PyObject *module)
{
    return PyModule_AddStringConstant(module, "name", "packed64");
}

/* Multi-phase init: loading the file through importlib.util leaves
   sys.modules untouched, so a test can load a fresh build in isolation. */
static PyModuleDef_Slot slots[] = {
    {Py_mod_exec, exec_module},
    {0, NULL},
};

static struct PyModuleDef module_def = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "boolmat._kernel._packed",
    .m_doc = "Single-word join-meet kernels: masks must fit one 64-bit word.",
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC
PyInit__packed(void)
{
    return PyModuleDef_Init(&module_def);
}
